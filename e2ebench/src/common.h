#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sqlpl/exec/table.h"
#include "sqlpl/sql/product_line.h"
#include "sqlpl/util/status.h"

namespace e2ebench {

/// Monotonic clock in nanoseconds (the benchmark's one time base).
inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Nearest-rank percentile, `p` in [0, 1]; 0 for no samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  auto nth = v.begin() + static_cast<ptrdiff_t>(std::min(v.size() - 1, rank > 0 ? rank - 1 : 0));
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same stream on every standard library, unlike std distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

enum class Kind : uint8_t { kParse, kExecute };

/// How the set-up phase teaches the server a workload's dialects.
enum class Teach : uint8_t {
  /// One inline-spec request per dialect (builds and caches its parser).
  kInlineRequest,
  /// One `ValidateSpec` frame per dialect: the server learns the
  /// fingerprint without building, so every later miss is a real build.
  kValidateSpec,
};

/// One typed result cell; `type` picks the live member.
struct Cell {
  sqlpl::exec::ColumnType type = sqlpl::exec::ColumnType::kInt64;
  int64_t i = 0;
  double d = 0;
  std::string s;
};
using Row = std::vector<Cell>;

/// The reference answer of one distinct request. Never produced by the
/// serving path under test: golden S-expressions, an in-process parse of
/// the same dialect, the benchmark's own scalar evaluation, or the
/// documented feature diagnostic.
struct Expected {
  sqlpl::StatusCode status = sqlpl::StatusCode::kOk;
  /// Parse: the S-expression (ok) or the error text. Execute: the error
  /// text (status != ok).
  std::string body;
  /// Execute results; `rows` sorted (the multiset the response must carry).
  std::vector<sqlpl::exec::ColumnType> column_types;
  std::vector<Row> rows;
  bool truncated = false;
  /// Where the reference came from (docs only; "golden", "inproc", ...).
  std::string source;
};

/// A single-table query of the exec workloads, in a form the benchmark can
/// both render to SQL and evaluate itself (reference.cc) without going
/// through the program's parser, lowering or executor.
struct ExecQuery {
  enum class Agg : uint8_t { kNone, kCountStar, kSum, kAvg, kMin, kMax };
  struct Item {
    Agg agg = Agg::kNone;
    std::string column;  // empty for COUNT(*)
  };
  struct Pred {
    std::string column;
    char op = '=';  // '<', '>' or '='
    bool is_double = false;
    int64_t i = 0;
    double d = 0;
  };
  std::string table;
  bool distinct = false;
  std::vector<Item> select;
  std::vector<Pred> where;  // conjunction
  std::string group_by;     // empty = no GROUP BY
  /// Output column (index into `select`) to order by, and direction.
  std::optional<std::pair<size_t, bool>> order_by;

  std::string ToSql() const;
};

/// One distinct request of a workload's pool.
struct Request {
  Kind kind = Kind::kParse;
  uint32_t dialect = 0;
  std::string sql;
  /// Execute row cap (the wire's max_rows; 0 = server default).
  uint64_t max_rows = 0;
  /// Statement from the frozen golden corpus.
  bool golden = false;
  /// Execute statement that must come back as kFeatureUnsupported.
  bool feature_rejected = false;
  /// Execute requests: the evaluable form `sql` was rendered from.
  std::shared_ptr<const ExecQuery> query;
  Expected expected;
};

struct Dialect {
  sqlpl::DialectSpec spec;
  uint64_t fingerprint = 0;
};

/// Everything a workload sends, generated from the seed alone.
struct Workload {
  std::string name;
  Teach teach = Teach::kInlineRequest;
  std::vector<Dialect> dialects;
  std::vector<Request> pool;
  /// Pool indices in send order; the drivers cycle through it.
  std::vector<uint32_t> sequence;
  /// Open-loop rate (requests/s), frozen per workload at a seventh to a
  /// quarter of the calibration host's closed-loop saturation.
  double open_rate = 0;
  /// Closed-loop requests in flight per connection.
  size_t window_per_conn = 0;
  /// Rows of the `bench` table registered before start (0 = none).
  size_t bench_rows = 0;
};

inline constexpr const char* kBenchTable = "bench";
inline constexpr uint64_t kBenchTableSeed = 42;

/// Rows an Execute response carries when the request leaves max_rows at 0
/// (the wire server's documented default cap, docs/EXECUTION.md).
inline constexpr uint64_t kServerDefaultRowCap = 16384;

inline bool Has(const sqlpl::DialectSpec& spec, const char* feature) {
  return std::find(spec.features.begin(), spec.features.end(), feature) !=
         spec.features.end();
}

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H_
