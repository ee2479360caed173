#include "reference.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "sqlpl/baseline/monolithic_parser.h"
#include "sqlpl/fm/configurator.h"
#include "sqlpl/sql/product_line.h"

namespace e2ebench {
namespace {

using sqlpl::StatusCode;
using sqlpl::exec::Column;
using sqlpl::exec::ColumnType;
using sqlpl::exec::Table;
using Agg = ExecQuery::Agg;

Cell CellAt(const Column& column, size_t row) {
  Cell cell;
  cell.type = column.type;
  switch (column.type) {
    case ColumnType::kInt64:
      cell.i = column.i64[row];
      break;
    case ColumnType::kDouble:
      cell.d = column.f64[row];
      break;
    case ColumnType::kString:
      cell.s = column.str[row];
      break;
  }
  return cell;
}

const Column* FindColumn(const Table& table, const std::string& name) {
  int index = table.FindColumn(name);
  return index < 0 ? nullptr : &table.column(static_cast<size_t>(index));
}

bool PredHolds(const ExecQuery::Pred& p, const Column& column, size_t row) {
  auto cmp = [&](auto lhs, auto rhs) {
    switch (p.op) {
      case '<':
        return lhs < rhs;
      case '>':
        return lhs > rhs;
      default:
        return lhs == rhs;
    }
  };
  if (column.type == ColumnType::kDouble) {
    return cmp(column.f64[row], p.is_double ? p.d : static_cast<double>(p.i));
  }
  if (p.is_double) return cmp(static_cast<double>(column.i64[row]), p.d);
  return cmp(column.i64[row], p.i);
}

// Compares a cell of `a` with one of `b` of the same type; doubles within
// a relative 1e-9 (aggregation order may differ from the executor's).
int CompareCell(const Cell& a, const Cell& b, bool tolerant) {
  switch (a.type) {
    case ColumnType::kInt64:
      return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
    case ColumnType::kDouble: {
      if (tolerant) {
        double scale = std::max({1.0, std::fabs(a.d), std::fabs(b.d)});
        if (std::fabs(a.d - b.d) <= 1e-9 * scale) return 0;
      }
      return a.d < b.d ? -1 : (a.d > b.d ? 1 : 0);
    }
    case ColumnType::kString:
      return a.s.compare(b.s) < 0 ? -1 : (a.s == b.s ? 0 : 1);
  }
  return 0;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    int c = CompareCell(a[i], b[i], false);
    if (c != 0) return c < 0;
  }
  return false;
}

// The benchmark's own evaluation of `q` over `table`: filter, then either
// project or group and aggregate, then a stable sort and the row cap.
Expected Evaluate(const ExecQuery& q, const Table& table, uint64_t max_rows) {
  Expected e;
  e.source = "scalar";
  std::vector<const Column*> pred_cols;
  for (const ExecQuery::Pred& p : q.where) pred_cols.push_back(FindColumn(table, p.column));
  std::vector<size_t> selected;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    bool keep = true;
    for (size_t k = 0; k < q.where.size() && keep; ++k) {
      keep = PredHolds(q.where[k], *pred_cols[k], row);
    }
    if (keep) selected.push_back(row);
  }

  bool aggregated = !q.group_by.empty();
  for (const ExecQuery::Item& item : q.select) {
    e.column_types.push_back(
        item.agg == Agg::kNone ? FindColumn(table, item.column)->type
        : item.agg == Agg::kCountStar ? ColumnType::kInt64
        : item.agg == Agg::kAvg       ? ColumnType::kDouble
                                      : FindColumn(table, item.column)->type);
    if (item.agg != Agg::kNone) aggregated = true;
  }

  if (!aggregated) {
    for (size_t row : selected) {
      Row out;
      for (const ExecQuery::Item& item : q.select) {
        out.push_back(CellAt(*FindColumn(table, item.column), row));
      }
      e.rows.push_back(std::move(out));
    }
  } else {
    // Groups in first-appearance order; one group when there is no
    // GROUP BY.
    const Column* key = q.group_by.empty() ? nullptr : FindColumn(table, q.group_by);
    std::map<std::string, size_t> group_of;
    std::vector<std::vector<size_t>> groups;
    for (size_t row : selected) {
      std::string k;
      if (key != nullptr) {
        Cell c = CellAt(*key, row);
        k = c.type == ColumnType::kString ? c.s : std::to_string(c.i);
      }
      auto [it, inserted] = group_of.emplace(k, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(row);
    }
    for (const std::vector<size_t>& rows : groups) {
      Row out;
      for (size_t c = 0; c < q.select.size(); ++c) {
        const ExecQuery::Item& item = q.select[c];
        Cell cell;
        cell.type = e.column_types[c];
        if (item.agg == Agg::kNone) {
          cell = CellAt(*FindColumn(table, item.column), rows.front());
        } else if (item.agg == Agg::kCountStar) {
          cell.i = static_cast<int64_t>(rows.size());
        } else {
          const Column& col = *FindColumn(table, item.column);
          const bool is_double = col.type == ColumnType::kDouble;
          auto value = [&](size_t row) {
            return is_double ? col.f64[row] : static_cast<double>(col.i64[row]);
          };
          int64_t isum = 0;
          double dsum = 0;
          Cell best = CellAt(col, rows.front());
          for (size_t row : rows) {
            if (is_double) {
              dsum += col.f64[row];
            } else {
              isum += col.i64[row];
            }
            Cell v = CellAt(col, row);
            int cmp = CompareCell(v, best, false);
            if ((item.agg == Agg::kMin && cmp < 0) ||
                (item.agg == Agg::kMax && cmp > 0)) {
              best = v;
            }
          }
          switch (item.agg) {
            case Agg::kSum:
              cell.i = isum;
              cell.d = dsum;
              break;
            case Agg::kAvg: {
              double total = 0;
              for (size_t row : rows) total += value(row);
              cell.d = total / static_cast<double>(rows.size());
              break;
            }
            default:
              cell = best;
              break;
          }
        }
        out.push_back(std::move(cell));
      }
      e.rows.push_back(std::move(out));
    }
  }

  if (q.order_by) {
    const size_t k = q.order_by->first;
    const bool desc = q.order_by->second;
    std::stable_sort(e.rows.begin(), e.rows.end(), [&](const Row& a, const Row& b) {
      int c = CompareCell(a[k], b[k], false);
      return desc ? c > 0 : c < 0;
    });
  }
  const uint64_t cap = max_rows > 0 ? max_rows : kServerDefaultRowCap;
  if (e.rows.size() > cap) {
    e.rows.resize(cap);
    e.truncated = true;
  }
  return e;
}

// The documented feature diagnostic for the first clause of `q` that
// `spec` lacks (gates run in statement order: DISTINCT before ORDER BY).
bool FeatureError(const ExecQuery& q, const sqlpl::DialectSpec& spec,
                  std::string* message) {
  const char* clause = nullptr;
  const char* feature = nullptr;
  if (q.distinct && !Has(spec, "SetQuantifier")) {
    clause = "DISTINCT quantifier";
    feature = "SetQuantifier";
  } else if (q.order_by && !Has(spec, "OrderBy")) {
    clause = "ORDER BY clause";
    feature = "OrderBy";
  } else {
    return false;
  }
  *message = std::string(clause) + " requires feature \"" + feature +
             "\", absent from dialect \"" + spec.name + "\"";
  return true;
}

const Table* TableFor(const ReferenceTables& tables, const std::string& name) {
  if (name == "readings") return tables.readings.get();
  if (name == "parts") return tables.parts.get();
  if (name == kBenchTable) return tables.bench.get();
  return nullptr;
}

}  // namespace

ReferenceTables MakeReferenceTables(const Workload& workload) {
  ReferenceTables tables;
  tables.readings = sqlpl::exec::MakeReadingsTable();
  tables.parts = sqlpl::exec::MakePartsTable();
  if (workload.bench_rows > 0) {
    tables.bench = sqlpl::exec::MakeBenchTable(kBenchTable, workload.bench_rows,
                                               kBenchTableSeed);
  }
  return tables;
}

sqlpl::Status ComputeReferences(Workload* w, const ReferenceTables& tables,
                                SpanLog* spans, double* productions_mean) {
  // Parse requests, grouped per dialect so each dialect's parser is built
  // once and dropped before the next (500 churn variants never coexist).
  std::vector<std::vector<size_t>> by_dialect(w->dialects.size());
  for (size_t i = 0; i < w->pool.size(); ++i) {
    by_dialect[w->pool[i].dialect].push_back(i);
  }
  const sqlpl::SqlProductLine line;
  const sqlpl::fm::Configurator& configurator =
      sqlpl::fm::Configurator::Instance();
  const sqlpl::MonolithicSqlParser monolithic;
  double productions_total = 0;
  size_t dialects_built = 0;
  for (size_t d = 0; d < w->dialects.size(); ++d) {
    const sqlpl::DialectSpec& spec = w->dialects[d].spec;
    bool valid = spans->Time("fm.validate", 0, [&] {
      return configurator.Validate(spec).valid;
    });
    if (!valid) {
      return sqlpl::Status::Internal("workload dialect " + spec.name +
                                     " fails validation");
    }
    // Spanned separately so the traced run can split BuildParser into
    // composition and the parser build proper.
    sqlpl::Result<sqlpl::Grammar> grammar = spans->Time("compose.compose", 0, [&] {
      return line.ComposeGrammar(spec, nullptr);
    });
    if (grammar.ok()) {
      productions_total += static_cast<double>(grammar->NumProductions());
    }
    sqlpl::Result<sqlpl::LlParser> parser = spans->Time("parser.build_parser", 0, [&] {
      return line.BuildParser(spec, nullptr);
    });
    ++dialects_built;
    if (!parser.ok()) {
      return sqlpl::Status::Internal("reference build of " + spec.name +
                                     " failed: " + parser.status().ToString());
    }
    const bool full = spec.name == "FullFoundation";
    for (size_t i : by_dialect[d]) {
      Request& r = w->pool[i];
      if (r.kind != Kind::kParse) continue;
      sqlpl::Result<sqlpl::ParseNode> tree = parser->ParseText(r.sql);
      if (!r.golden) {
        r.expected.source = "inproc";
        if (tree.ok()) {
          r.expected.status = StatusCode::kOk;
          r.expected.body = tree->ToSExpr();
        } else {
          r.expected.status = tree.status().code();
          r.expected.body = tree.status().message();
        }
      }
      if (full && monolithic.Accepts(r.sql) != (r.expected.status == StatusCode::kOk)) {
        return sqlpl::Status::Internal(
            "MonolithicSqlParser disagrees with the FullFoundation reference on: " +
            r.sql);
      }
    }
  }
  *productions_mean = dialects_built > 0 ? productions_total /
                                               static_cast<double>(dialects_built)
                                         : 0;

  for (Request& r : w->pool) {
    if (r.kind != Kind::kExecute) continue;
    const sqlpl::DialectSpec& spec = w->dialects[r.dialect].spec;
    std::string message;
    if (FeatureError(*r.query, spec, &message)) {
      r.expected = Expected{};
      r.expected.status = StatusCode::kFeatureUnsupported;
      r.expected.body = std::move(message);
      r.expected.source = "docs/EXECUTION.md";
      continue;
    }
    const Table* table = TableFor(tables, r.query->table);
    if (table == nullptr) {
      return sqlpl::Status::Internal("no reference table " + r.query->table);
    }
    r.expected = Evaluate(*r.query, *table, r.max_rows);
    // Row order is checked against ORDER BY alone (CheckExecute); the
    // rows themselves are compared as multisets, so sort them once here.
    std::sort(r.expected.rows.begin(), r.expected.rows.end(), RowLess);
  }
  for (const Request& r : w->pool) {
    if (r.feature_rejected != (r.expected.status == StatusCode::kFeatureUnsupported)) {
      return sqlpl::Status::Internal("feature-rejected flag disagrees with the "
                                     "reference for: " + r.sql);
    }
  }
  return sqlpl::Status::OK();
}

bool CheckParse(const Request& request, const sqlpl::net::WireParseResponse& r,
                std::string* why) {
  if (r.status != request.expected.status) {
    *why = std::string("status ") + sqlpl::StatusCodeToString(r.status) +
           ", expected " + sqlpl::StatusCodeToString(request.expected.status) +
           ": " + r.body.substr(0, 200);
    return false;
  }
  if (r.body != request.expected.body) {
    *why = "body differs from the " + request.expected.source + " reference";
    return false;
  }
  return true;
}

bool CheckExecute(const Request& request,
                  const sqlpl::net::WireExecuteResponse& r, std::string* why) {
  const Expected& e = request.expected;
  if (r.status != e.status) {
    *why = std::string("status ") + sqlpl::StatusCodeToString(r.status) +
           ", expected " + sqlpl::StatusCodeToString(e.status) + ": " +
           r.message.substr(0, 200);
    return false;
  }
  if (r.status != StatusCode::kOk) {
    if (r.message != e.body) {
      *why = "diagnostic differs: '" + r.message + "'";
      return false;
    }
    return true;
  }
  if (r.column_types != e.column_types) {
    *why = "column types differ";
    return false;
  }
  std::vector<Row> rows;
  for (const sqlpl::exec::RowBatch& batch : r.batches) {
    if (batch.columns.size() != e.column_types.size()) {
      *why = "batch column count differs";
      return false;
    }
    for (size_t row = 0; row < batch.num_rows; ++row) {
      Row out;
      for (const Column& column : batch.columns) {
        if (column.size() != batch.num_rows) {
          *why = "batch column length differs";
          return false;
        }
        out.push_back(CellAt(column, row));
      }
      rows.push_back(std::move(out));
    }
  }
  if (rows.size() != e.rows.size() || r.num_rows != e.rows.size() ||
      r.truncated != e.truncated) {
    *why = "row count " + std::to_string(rows.size()) + ", expected " +
           std::to_string(e.rows.size());
    return false;
  }
  if (request.query->order_by) {
    const size_t k = request.query->order_by->first;
    const bool desc = request.query->order_by->second;
    for (size_t i = 1; i < rows.size(); ++i) {
      int c = CompareCell(rows[i - 1][k], rows[i][k], false);
      if (desc ? c < 0 : c > 0) {
        *why = "rows out of ORDER BY order";
        return false;
      }
    }
  }
  // Row order is otherwise unspecified: compare as multisets (the
  // expected rows are already sorted).
  std::sort(rows.begin(), rows.end(), RowLess);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < rows[i].size(); ++c) {
      if (CompareCell(rows[i][c], e.rows[i][c], true) != 0) {
        *why = "row values differ from the scalar reference";
        return false;
      }
    }
  }
  return true;
}

}  // namespace e2ebench
