#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <cstdint>

#include "common.h"
#include "reference.h"
#include "spans.h"

namespace e2ebench {

/// Totals of an in-process replay that spans alone do not carry.
struct ReplayTotals {
  uint64_t requests = 0;
  uint64_t bytes_lexed = 0;
  uint64_t rows_scanned = 0;
};

/// The traced run's in-process replay: sends the workload's sequence,
/// request by request, through each layer's public function on a private
/// `DialectService`, with a benchmark-side span around every call:
///
///   net.decode_call       DecodeRequestPayload / DecodeExecuteRequestPayload
///   service.fingerprint   FingerprintSpec
///   service.get_parser    DialectService::GetParser (warm: a cache hit)
///   lexer.tokenize        Lexer::TokenizeInto
///   parser.render_call    LlParser::ParseTextRender
///   parser.parsenode_call LlParser::ParseText (owning tree)
///   semantics.ast_build   BuildSelectStatement
///   exec.lowering_call    exec::LowerSelect            (execute requests)
///   exec.execute_call     exec::ExecutePlan            (execute requests)
///   net.encode_call       EncodeResponseFrame / EncodeExecuteResponseFrame
///
/// Stops after `budget_s` seconds, one pass over the sequence, or when
/// the span log is full.
ReplayTotals ReplayLayers(const Workload& workload,
                          const ReferenceTables& tables, SpanLog* spans,
                          double budget_s);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H_
