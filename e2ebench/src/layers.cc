#include "layers.h"

#include "sqlpl/exec/executor.h"
#include "sqlpl/exec/lowering.h"
#include "sqlpl/lexer/token_stream.h"
#include "sqlpl/net/wire.h"
#include "sqlpl/semantics/ast_builder.h"
#include "sqlpl/service/dialect_service.h"
#include "sqlpl/service/spec_fingerprint.h"

namespace e2ebench {

namespace net = sqlpl::net;

namespace {

std::span<const uint8_t> Payload(const std::string& frame) {
  return {reinterpret_cast<const uint8_t*>(frame.data()) + net::kFrameHeaderBytes,
          frame.size() - net::kFrameHeaderBytes};
}

}  // namespace

ReplayTotals ReplayLayers(const Workload& w, const ReferenceTables& tables,
                          SpanLog* spans, double budget_s) {
  ReplayTotals totals;
  sqlpl::DialectService service;
  if (tables.bench) (void)service.tables().Register(tables.bench);
  const sqlpl::RequestControl control;
  const uint64_t stop = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  sqlpl::TokenStream stream;
  std::string frame;
  for (size_t k = 0; k < w.sequence.size() && NowNs() < stop && !spans->full(); ++k) {
    const Request& r = w.pool[w.sequence[k]];
    const Dialect& d = w.dialects[r.dialect];
    const uint64_t id = k + 1;
    ++totals.requests;

    frame.clear();
    if (r.kind == Kind::kParse) {
      net::WireParseRequest req;
      req.request_id = id;
      req.fingerprint = d.fingerprint;
      req.sql = r.sql;
      net::EncodeRequestFrame(req, &frame);
      net::WireParseRequest decoded;
      spans->Time("net.decode_call", id, [&] {
        return net::DecodeRequestPayload(Payload(frame), &decoded);
      });
    } else {
      net::WireExecuteRequest req;
      req.request_id = id;
      req.fingerprint = d.fingerprint;
      req.sql = r.sql;
      req.max_rows = r.max_rows;
      net::EncodeExecuteRequestFrame(req, &frame);
      net::WireExecuteRequest decoded;
      spans->Time("net.decode_call", id, [&] {
        return net::DecodeExecuteRequestPayload(Payload(frame), &decoded);
      });
    }

    spans->Time("service.fingerprint", id, [&] { return sqlpl::FingerprintSpec(d.spec); });
    // The first call may build (untimed); the spanned one is the hit path.
    if (!service.GetParser(d.spec, control).ok()) continue;
    auto parser = spans->Time("service.get_parser", id, [&] {
      return service.GetParser(d.spec, control);
    });
    if (!parser.ok()) continue;
    const sqlpl::LlParser& p = **parser;

    stream.Clear();
    spans->Time("lexer.tokenize", id, [&] { return p.lexer().TokenizeInto(r.sql, &stream); });
    totals.bytes_lexed += r.sql.size();

    sqlpl::ParseStats stats;
    std::string rendered;
    spans->Time("parser.render_call", id, [&] {
      return p.ParseTextRender(r.sql, control, &stats, &rendered);
    });
    sqlpl::Result<sqlpl::ParseNode> tree =
        spans->Time("parser.parsenode_call", id, [&] { return p.ParseText(r.sql); });
    if (!tree.ok()) continue;
    sqlpl::Result<sqlpl::SelectStatement> statement = spans->Time(
        "semantics.ast_build", id, [&] { return sqlpl::BuildSelectStatement(*tree); });

    if (r.kind == Kind::kParse) {
      net::WireParseResponse resp;
      resp.request_id = id;
      resp.fingerprint = d.fingerprint;
      resp.body = std::move(rendered);
      std::string out;
      spans->Time("net.encode_call", id, [&] { net::EncodeResponseFrame(resp, &out); });
      continue;
    }
    if (!statement.ok()) continue;
    sqlpl::exec::LoweringOptions lowering;
    lowering.max_rows = r.max_rows > 0 ? r.max_rows : kServerDefaultRowCap;
    sqlpl::Result<sqlpl::exec::LogicalPlan> plan = spans->Time("exec.lowering_call", id, [&] {
      return sqlpl::exec::LowerSelect(*statement, d.spec, service.tables(), lowering);
    });
    if (!plan.ok()) continue;
    sqlpl::exec::ExecStats exec_stats;
    sqlpl::Result<sqlpl::exec::QueryResult> result =
        spans->Time("exec.execute_call", id, [&] {
          return sqlpl::exec::ExecutePlan(*plan, {}, &exec_stats);
        });
    if (!result.ok()) continue;
    totals.rows_scanned += exec_stats.rows_scanned;
    net::WireExecuteResponse resp;
    resp.request_id = id;
    resp.fingerprint = d.fingerprint;
    resp.num_rows = result->num_rows;
    resp.truncated = result->truncated;
    resp.column_names = std::move(result->column_names);
    resp.column_types = std::move(result->column_types);
    resp.batches = std::move(result->batches);
    std::string out;
    spans->Time("net.encode_call", id, [&] { net::EncodeExecuteResponseFrame(resp, &out); });
  }
  return totals;
}

}  // namespace e2ebench
