#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <memory>
#include <string>

#include "common.h"
#include "spans.h"
#include "sqlpl/net/wire.h"

namespace e2ebench {

/// The tables the exec workloads query, built by the benchmark itself
/// before set-up. The server gets its own demo tables from DialectService;
/// `bench` is built once and the same immutable table is registered in
/// every set-up, so only one copy of its ~32 MB exists.
struct ReferenceTables {
  std::shared_ptr<const sqlpl::exec::Table> readings;
  std::shared_ptr<const sqlpl::exec::Table> parts;
  std::shared_ptr<const sqlpl::exec::Table> bench;  // null unless used
};

ReferenceTables MakeReferenceTables(const Workload& workload);

/// Fills `expected` of every pool entry, without the serving path under
/// test:
///  - golden-corpus statements: the frozen S-expressions;
///  - other parse requests: an in-process owning-tree
///    `ParseText(...).ToSExpr()` under a parser the benchmark builds from
///    the same spec (validate, compose and build are spanned into `spans`
///    as fm.validate, compose.compose and parser.build_parser);
///  - execute rows: the benchmark's own scalar evaluation over `tables`;
///  - feature errors: the documented diagnostic text (docs/EXECUTION.md).
/// FullFoundation requests are additionally checked against the
/// hand-written `MonolithicSqlParser`; a disagreement fails the run.
sqlpl::Status ComputeReferences(Workload* workload,
                                const ReferenceTables& tables, SpanLog* spans,
                                double* productions_mean);

/// Response checks; on mismatch `why` says what differed.
bool CheckParse(const Request& request, const sqlpl::net::WireParseResponse& r,
                std::string* why);
bool CheckExecute(const Request& request,
                  const sqlpl::net::WireExecuteResponse& r, std::string* why);

}  // namespace e2ebench

#endif  // E2EBENCH_REFERENCE_H_
