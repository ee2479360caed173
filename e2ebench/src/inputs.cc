#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "sqlpl/fm/configurator.h"
#include "sqlpl/service/spec_fingerprint.h"
#include "sqlpl/sql/dialects.h"
#include "sqlpl/testing/golden_corpus.h"
#include "sqlpl/testing/workload_generator.h"

namespace e2ebench {
namespace {

using sqlpl::DialectSpec;

// Length of every workload's send sequence; the drivers cycle through it.
constexpr size_t kSequenceLength = 1 << 16;

// Frozen load shape per workload. `open_rate` is a seventh (parse_hot,
// exec_point) to a quarter (dialect_churn, exec_scan) of the closed-loop
// saturation measured on the calibration host: the highest rate whose
// open-loop tail did not move when one core was taken away (README.md,
// "Frozen load"). It is never derived from the host a run lands on, so
// two hosts offer the same load and differ only in how they cope.
struct LoadShape {
  const char* name;
  double open_rate;
  size_t window_per_conn;
};
constexpr LoadShape kLoadShapes[] = {
    {"parse_hot", 10000, 16},
    {"dialect_churn", 1200, 8},
    {"exec_point", 4500, 16},
    {"exec_scan", 130, 2},
};

Dialect MakeDialect(DialectSpec spec) {
  Dialect dialect;
  dialect.fingerprint = sqlpl::FingerprintSpec(spec).value;
  dialect.spec = std::move(spec);
  return dialect;
}

uint32_t DialectIndex(const Workload& w, const std::string& name) {
  for (size_t i = 0; i < w.dialects.size(); ++i) {
    if (w.dialects[i].spec.name == name) return static_cast<uint32_t>(i);
  }
  return UINT32_MAX;
}

bool Unbounded(const DialectSpec& spec, const char* feature) {
  auto it = spec.counts.find(feature);
  return it == spec.counts.end() || it->second != 1;
}

// --- parse_hot -----------------------------------------------------------
//
// The six presets, the golden corpus verbatim, WorkloadGenerator statements
// of complexity 0-3 (CoreQuery language, so CoreQuery and FullFoundation
// accept them), and a few WorkedExample statements (the one preset the
// corpus does not cover). The generated statements are many, so that the
// mix costs about the same whatever the seed: with 24 per complexity the
// closed-loop CPU per request differed by ~20 % between seeds.
constexpr size_t kGeneratedPerComplexity = 250;
// Shares of the send sequence; the generated statements take the rest.
constexpr double kGoldenShare = 0.4;
constexpr double kWorkedShare = 0.03;
void MakeParseHot(uint64_t seed, Workload* w) {
  for (DialectSpec& spec : sqlpl::AllPresetDialects()) {
    w->dialects.push_back(MakeDialect(std::move(spec)));
  }
  for (const sqlpl::GoldenCase& gc : sqlpl::GoldenCorpus()) {
    Request r;
    r.dialect = DialectIndex(*w, gc.dialect);
    r.sql = gc.sql;
    r.golden = true;
    r.expected.body = gc.sexpr;
    r.expected.source = "golden";
    w->pool.push_back(std::move(r));
  }
  const size_t golden = w->pool.size();
  Rng rng(seed ^ 0x7061727365ULL);
  sqlpl::WorkloadGenerator gen(static_cast<uint32_t>(seed));
  const uint32_t core = DialectIndex(*w, "CoreQuery");
  const uint32_t full = DialectIndex(*w, "FullFoundation");
  for (int complexity = 0; complexity <= 3; ++complexity) {
    for (size_t i = 0; i < kGeneratedPerComplexity; ++i) {
      Request r;
      r.dialect = i % 2 == 0 ? core : full;
      r.sql = gen.SelectStatement(complexity);
      w->pool.push_back(std::move(r));
    }
  }
  const size_t generated = w->pool.size();
  const uint32_t worked = DialectIndex(*w, "WorkedExample");
  const char* worked_sql[] = {
      "SELECT a FROM t",
      "SELECT DISTINCT name FROM emp WHERE dept = 'R'",
      "SELECT ALL temp FROM readings WHERE temp > 20 AND room = 'lab'",
      "SELECT col1 FROM readings WHERE col1 = 10 OR col1 = 20",
  };
  for (const char* sql : worked_sql) {
    Request r;
    r.dialect = worked;
    r.sql = sql;
    w->pool.push_back(std::move(r));
  }
  const size_t worked_count = w->pool.size() - generated;
  for (size_t i = 0; i < kSequenceLength; ++i) {
    const double u = rng.Unit();
    const size_t pick = u < kGoldenShare ? rng.Below(golden)
                        : u < kGoldenShare + kWorkedShare
                            ? generated + rng.Below(worked_count)
                            : golden + rng.Below(generated - golden);
    w->sequence.push_back(static_cast<uint32_t>(pick));
  }
}

// --- dialect_churn -------------------------------------------------------

constexpr size_t kChurnVariants = 500;
// Zipf exponent of variant popularity. About 80% of requests hit the
// server's 64-entry (8 shards x 8) LRU parser cache and 20% build and
// evict: the median request is a hit, the 90th percentile a build, and
// neither sits on the boundary between the two, where a run-to-run shift
// in the hit ratio would move it.
constexpr double kChurnZipf = 1.3;

// Query-shaped catalog modules outside CoreQuery that a variant may add.
const char* const kChurnExtras[] = {
    "BetweenPredicate", "InPredicate",     "LikePredicate",
    "NullPredicate",    "CaseExpressions", "CastExpression",
    "Concatenation",    "StringFunctions", "BooleanLiterals",
    "DatetimeLiterals", "Union",           "Except",
    "Intersect",        "JoinedTable",     "DerivedTable",
    "Subqueries",       "ExistsPredicate", "SamplePeriod",
    "EpochDuration",    "FetchFirst",      "WithClause",
    "DistinctPredicate",
};
// The query skeleton every variant keeps, so every variant has a SELECT.
const char* const kChurnBase[] = {
    "ValueExpressions", "Literals",        "SelectList",      "DerivedColumn",
    "From",             "TableExpression", "QuerySpecification",
};
const char* const kChurnOptional[] = {
    "AsClause", "Asterisk", "CorrelationName", "SetQuantifier",
    "SearchConditions", "Where", "GroupBy", "Having", "OrderBy",
    "NumericExpressions", "SetFunctions",
};

// Small statements a variant's features should admit.
std::vector<std::string> ChurnStatements(const DialectSpec& spec) {
  std::vector<std::string> out = {"SELECT a FROM t"};
  if (Unbounded(spec, "SelectList")) out.push_back("SELECT a, b FROM t");
  if (Unbounded(spec, "From")) out.push_back("SELECT a FROM t, u");
  if (Has(spec, "Where") && Has(spec, "SearchConditions")) {
    out.push_back("SELECT a FROM t WHERE a = 1");
  }
  if (Has(spec, "Asterisk")) out.push_back("SELECT * FROM t");
  if (Has(spec, "SetQuantifier")) out.push_back("SELECT DISTINCT a FROM t");
  if (Has(spec, "AsClause")) out.push_back("SELECT a AS x FROM t");
  if (Has(spec, "OrderBy")) out.push_back("SELECT a FROM t ORDER BY a");
  if (Has(spec, "NumericExpressions")) out.push_back("SELECT a + 1 FROM t");
  if (Has(spec, "GroupBy") && Has(spec, "SetFunctions") &&
      Unbounded(spec, "SelectList")) {
    out.push_back("SELECT a, COUNT(b) FROM t GROUP BY a");
  }
  return out;
}

void MakeDialectChurn(uint64_t seed, Workload* w) {
  Rng rng(seed ^ 0x636875726eULL);
  const sqlpl::fm::Configurator& configurator =
      sqlpl::fm::Configurator::Instance();
  std::set<uint64_t> seen;
  size_t attempts = 0;
  while (w->dialects.size() < kChurnVariants && attempts < 20 * kChurnVariants) {
    ++attempts;
    DialectSpec partial;
    for (const char* f : kChurnBase) partial.features.push_back(f);
    for (const char* f : kChurnOptional) {
      if (rng.Chance(0.5)) partial.features.push_back(f);
    }
    const size_t n_extras = rng.Below(4);
    for (size_t i = 0; i < n_extras; ++i) {
      const char* f = kChurnExtras[rng.Below(std::size(kChurnExtras))];
      if (!Has(partial, f)) partial.features.push_back(f);
    }
    if (rng.Chance(0.3)) partial.counts["SelectList"] = 1;
    if (rng.Chance(0.3)) partial.counts["From"] = 1;
    char name[16];
    std::snprintf(name, sizeof(name), "v%03zu", w->dialects.size());
    partial.name = name;
    sqlpl::Result<DialectSpec> completed = configurator.Complete(partial);
    if (!completed.ok() || !configurator.Validate(*completed).valid) continue;
    Dialect dialect = MakeDialect(std::move(completed).value());
    if (!seen.insert(dialect.fingerprint).second) continue;
    w->dialects.push_back(std::move(dialect));
  }

  // Pool: up to three statements per variant; `first` indexes each
  // variant's slice.
  std::vector<size_t> first;
  for (uint32_t v = 0; v < w->dialects.size(); ++v) {
    first.push_back(w->pool.size());
    std::vector<std::string> candidates = ChurnStatements(w->dialects[v].spec);
    for (size_t k = 0; k < 3 && !candidates.empty(); ++k) {
      size_t pick = rng.Below(candidates.size());
      Request r;
      r.dialect = v;
      r.sql = candidates[pick];
      w->pool.push_back(std::move(r));
      candidates.erase(candidates.begin() + static_cast<ptrdiff_t>(pick));
    }
  }
  first.push_back(w->pool.size());

  // Zipf popularity over a seeded rank permutation of the variants.
  const size_t n = w->dialects.size();
  std::vector<uint32_t> by_rank(n);
  for (uint32_t i = 0; i < n; ++i) by_rank[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(by_rank[i - 1], by_rank[rng.Below(i)]);
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kChurnZipf);
    cdf[r] = total;
  }
  for (size_t i = 0; i < kSequenceLength; ++i) {
    double u = rng.Unit() * total;
    size_t rank = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    uint32_t v = by_rank[std::min(rank, n - 1)];
    size_t span = first[v + 1] - first[v];
    w->sequence.push_back(static_cast<uint32_t>(first[v] + rng.Below(span)));
  }
}

// --- exec workloads --------------------------------------------------------

using Agg = ExecQuery::Agg;

ExecQuery::Pred IntPred(const char* column, char op, int64_t v) {
  ExecQuery::Pred p;
  p.column = column;
  p.op = op;
  p.i = v;
  return p;
}

ExecQuery::Pred DoublePred(const char* column, char op, double v) {
  ExecQuery::Pred p;
  p.column = column;
  p.op = op;
  p.is_double = true;
  p.d = v;
  return p;
}

ExecQuery Query(const char* table, std::vector<ExecQuery::Item> select,
                std::vector<ExecQuery::Pred> where = {},
                const char* group_by = "") {
  ExecQuery q;
  q.table = table;
  q.select = std::move(select);
  q.where = std::move(where);
  q.group_by = group_by;
  return q;
}

void AddExec(Workload* w, uint32_t dialect, ExecQuery q, uint64_t max_rows,
             bool rejected) {
  Request r;
  r.kind = Kind::kExecute;
  r.dialect = dialect;
  r.sql = q.ToSql();
  r.max_rows = max_rows;
  r.feature_rejected = rejected;
  r.query = std::make_shared<const ExecQuery>(std::move(q));
  w->pool.push_back(std::move(r));
}

// Statements over the demo tables readings(room, sensor_id, temp, epoch)
// and parts(part, warehouse, qty, price): projections, filters, GROUP BY
// and ORDER BY. Under TinySQL (no OrderBy, no SetQuantifier) the ORDER BY
// and DISTINCT forms are the feature-rejected share.
std::vector<ExecQuery> PointQueries(Rng* rng) {
  auto temp = [&] { return 15.0 + 0.25 * static_cast<double>(rng->Below(84)); };
  auto qty = [&] { return static_cast<int64_t>(1 + rng->Below(50)); };
  auto price = [&] { return 0.5 + 1.25 * static_cast<double>(rng->Below(7)); };
  std::vector<ExecQuery> out;
  out.push_back(Query("readings", {{Agg::kNone, "room"}, {Agg::kNone, "temp"}},
                      {DoublePred("temp", '>', temp())}));
  out.push_back(Query("readings",
                      {{Agg::kNone, "sensor_id"}, {Agg::kNone, "epoch"},
                       {Agg::kNone, "temp"}},
                      {IntPred("sensor_id", '=', static_cast<int64_t>(rng->Below(8)))}));
  out.push_back(Query("parts", {{Agg::kNone, "part"}, {Agg::kNone, "qty"}},
                      {IntPred("qty", '<', qty())}));
  out.push_back(Query("parts",
                      {{Agg::kNone, "warehouse"}, {Agg::kNone, "part"},
                       {Agg::kNone, "price"}},
                      {DoublePred("price", '>', price()), IntPred("qty", '>', qty())}));
  out.push_back(Query("readings",
                      {{Agg::kNone, "room"}, {Agg::kCountStar, ""},
                       {Agg::kAvg, "temp"}},
                      {}, "room"));
  out.push_back(Query("parts",
                      {{Agg::kNone, "warehouse"}, {Agg::kSum, "qty"},
                       {Agg::kMax, "price"}},
                      {IntPred("qty", '>', qty())}, "warehouse"));
  out.push_back(Query("readings",
                      {{Agg::kNone, "sensor_id"}, {Agg::kMin, "temp"}},
                      {IntPred("epoch", '>', 1000 + 10 * static_cast<int64_t>(rng->Below(32)))},
                      "sensor_id"));
  return out;
}

std::vector<ExecQuery> PointOrderedQueries(Rng* rng) {
  std::vector<ExecQuery> out;
  ExecQuery a = Query("parts",
                      {{Agg::kNone, "part"}, {Agg::kNone, "qty"},
                       {Agg::kNone, "price"}},
                      {DoublePred("price", '>', 0.5 + 1.25 * static_cast<double>(rng->Below(6)))});
  a.order_by = {{1, true}};
  out.push_back(std::move(a));
  ExecQuery b = Query("readings",
                      {{Agg::kNone, "room"}, {Agg::kNone, "sensor_id"},
                       {Agg::kNone, "temp"}},
                      {DoublePred("temp", '>', 15.0 + 0.5 * static_cast<double>(rng->Below(30)))});
  b.order_by = {{2, true}};
  out.push_back(std::move(b));
  ExecQuery c = Query("parts", {{Agg::kNone, "warehouse"}, {Agg::kSum, "qty"}},
                      {}, "warehouse");
  c.order_by = {{0, false}};
  out.push_back(std::move(c));
  return out;
}

// Rounds of PointQueries/PointOrderedQueries in the pool: enough that the
// random filter constants, which set the result sizes, average out and
// the mix costs about the same whatever the seed.
constexpr int kPointRounds = 64;

void MakeExecPoint(uint64_t seed, Workload* w) {
  w->dialects.push_back(MakeDialect(sqlpl::CoreQueryDialect()));
  w->dialects.push_back(MakeDialect(sqlpl::TinySqlDialect()));
  const uint32_t core = 0;
  const uint32_t tiny = 1;
  Rng rng(seed ^ 0x706f696e74ULL);
  std::vector<size_t> accepted;
  std::vector<size_t> rejected;
  for (int round = 0; round < kPointRounds; ++round) {
    for (ExecQuery& q : PointQueries(&rng)) {
      // TinySQL reserves EPOCH (its EpochDuration feature), so statements
      // naming the epoch column are CoreQuery's.
      bool names_epoch = q.group_by == "epoch";
      for (const ExecQuery::Item& item : q.select) names_epoch |= item.column == "epoch";
      for (const ExecQuery::Pred& p : q.where) names_epoch |= p.column == "epoch";
      const bool pick_core = rng.Chance(0.5);
      accepted.push_back(w->pool.size());
      AddExec(w, pick_core || names_epoch ? core : tiny, std::move(q), 0, false);
    }
    for (ExecQuery& q : PointOrderedQueries(&rng)) {
      accepted.push_back(w->pool.size());
      AddExec(w, core, q, 0, false);
      rejected.push_back(w->pool.size());
      AddExec(w, tiny, std::move(q), 0, true);
    }
    ExecQuery distinct = Query("parts", {{Agg::kNone, "warehouse"}});
    distinct.distinct = true;
    rejected.push_back(w->pool.size());
    AddExec(w, tiny, std::move(distinct), 0, true);
  }
  // About 5% of the traffic takes the refinement path.
  for (size_t i = 0; i < kSequenceLength; ++i) {
    const std::vector<size_t>& from = rng.Chance(0.05) ? rejected : accepted;
    w->sequence.push_back(static_cast<uint32_t>(from[rng.Below(from.size())]));
  }
}

constexpr size_t kScanRows = 1000000;

// Aggregate, selective-filter, GROUP BY grp and ORDER BY + LIMIT queries
// over bench(id, v, grp, price): v uniform in [0, 1e6), grp = v % 16,
// price = v / 100. Every result is small and every filter keeps at most
// ~10% of the rows, so the scan dominates each request and the four
// shapes cost about the same (seeds then differ little in cost).
void MakeExecScan(uint64_t seed, Workload* w) {
  w->dialects.push_back(MakeDialect(sqlpl::CoreQueryDialect()));
  w->bench_rows = kScanRows;
  Rng rng(seed ^ 0x7363616eULL);
  for (int round = 0; round < 32; ++round) {
    const int64_t cut = static_cast<int64_t>(1000 + rng.Below(100000));
    AddExec(w, 0,
            Query(kBenchTable,
                  {{Agg::kCountStar, ""}, {Agg::kSum, "v"},
                   {Agg::kMin, "price"}, {Agg::kMax, "price"}},
                  {IntPred("v", '<', cut)}),
            0, false);
    AddExec(w, 0,
            Query(kBenchTable,
                  {{Agg::kNone, "grp"}, {Agg::kCountStar, ""},
                   {Agg::kSum, "v"}, {Agg::kAvg, "price"}},
                  {IntPred("v", '>', 1000000 - cut)}, "grp"),
            0, false);
    const int64_t key = static_cast<int64_t>(rng.Below(1000000));
    AddExec(w, 0,
            Query(kBenchTable,
                  {{Agg::kNone, "id"}, {Agg::kNone, "v"}, {Agg::kNone, "price"}},
                  {IntPred("v", '>', key), IntPred("v", '<', key + 40)}),
            0, false);
    // Selective enough that the scan, not the sort, dominates.
    const int64_t top_cut = static_cast<int64_t>(1000 + rng.Below(20000));
    ExecQuery top = Query(kBenchTable, {{Agg::kNone, "id"}, {Agg::kNone, "v"}},
                          {IntPred("v", '<', top_cut)});
    top.order_by = {{0, true}};
    AddExec(w, 0, std::move(top), 10, false);
  }
  for (size_t i = 0; i < kSequenceLength; ++i) {
    w->sequence.push_back(static_cast<uint32_t>(rng.Below(w->pool.size())));
  }
}

const char* AggName(Agg agg) {
  switch (agg) {
    case Agg::kNone:
    case Agg::kCountStar:
      return "COUNT";
    case Agg::kSum:
      return "SUM";
    case Agg::kAvg:
      return "AVG";
    case Agg::kMin:
      return "MIN";
    case Agg::kMax:
      return "MAX";
  }
  return "";
}

std::string DoubleLiteral(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

std::string ExecQuery::ToSql() const {
  std::string sql = distinct ? "SELECT DISTINCT " : "SELECT ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) sql += ", ";
    const Item& item = select[i];
    if (item.agg == Agg::kNone) {
      sql += item.column;
    } else if (item.agg == Agg::kCountStar) {
      sql += "COUNT(*)";
    } else {
      sql += std::string(AggName(item.agg)) + "(" + item.column + ")";
    }
  }
  sql += " FROM " + table;
  for (size_t i = 0; i < where.size(); ++i) {
    const Pred& p = where[i];
    sql += i == 0 ? " WHERE " : " AND ";
    sql += p.column + " " + p.op + " " +
           (p.is_double ? DoubleLiteral(p.d) : std::to_string(p.i));
  }
  if (!group_by.empty()) sql += " GROUP BY " + group_by;
  if (order_by) {
    const Item& key = select[order_by->first];
    sql += " ORDER BY " + key.column + (order_by->second ? " DESC" : "");
  }
  return sql;
}

sqlpl::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "parse_hot") {
    MakeParseHot(seed, &w);
  } else if (name == "dialect_churn") {
    w.teach = Teach::kValidateSpec;
    MakeDialectChurn(seed, &w);
  } else if (name == "exec_point") {
    MakeExecPoint(seed, &w);
  } else if (name == "exec_scan") {
    MakeExecScan(seed, &w);
  } else {
    return sqlpl::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  for (const LoadShape& shape : kLoadShapes) {
    if (name == shape.name) {
      w.open_rate = shape.open_rate;
      w.window_per_conn = shape.window_per_conn;
    }
  }
  return w;
}

std::string SerializeInputs(const Workload& w) {
  std::string out = "workload " + w.name + "\n";
  for (const Dialect& d : w.dialects) {
    out += "dialect " + d.spec.name + " start=" + d.spec.start_symbol + " fp=" +
           std::to_string(d.fingerprint) + " features=";
    for (const std::string& f : d.spec.features) out += f + ",";
    out += " counts=";
    for (const auto& [f, c] : d.spec.counts) out += f + ":" + std::to_string(c) + ",";
    out += "\n";
  }
  for (const Request& r : w.pool) {
    out += std::string(r.kind == Kind::kParse ? "parse" : "exec") + " d=" +
           std::to_string(r.dialect) + " max_rows=" + std::to_string(r.max_rows) +
           " | " + r.sql + "\n";
  }
  out += "sequence";
  for (uint32_t i : w.sequence) out += " " + std::to_string(i);
  out += "\n";
  return out;
}

}  // namespace e2ebench
