#ifndef E2EBENCH_DRIVER_H_
#define E2EBENCH_DRIVER_H_

#include <poll.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "sqlpl/net/sql_server.h"

namespace e2ebench {

/// What one load phase does.
struct PhaseOptions {
  /// Open loop: requests are due at a fixed `rate` and timed from their
  /// due time. Closed loop: `window_per_conn` requests stay in flight on
  /// every connection and each completion sends the next one.
  bool open_loop = true;
  double rate = 0;
  size_t window_per_conn = 1;
  double seconds = 1;
  /// The closed loop is also measured in consecutive windows of this
  /// length; the reported figures are quantiles over windows (main.cc).
  double window_s = 1;
  /// Stamp a client trace context on every request and collect the
  /// server's stage table from the responses.
  bool traced = false;
};

/// What one phase measured. Latencies are µs; a request that failed, was
/// refused or never answered counts as +inf.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t correct = 0;
  uint64_t failed = 0;
  /// Open loop: due time -> decoded response, for every request.
  std::vector<double> latency_us;
  /// Open loop: how late the generator sent each request.
  std::vector<double> lag_us;
  /// Closed loop, per window: correct completions per second, the
  /// process CPU time (user + sys) per completion, and the percentiles of
  /// send -> decoded response over the requests completed in the window.
  std::vector<double> window_rps;
  std::vector<double> window_cpu_us_per_req;
  std::vector<double> window_p50_us;
  std::vector<double> window_p90_us;
  std::vector<double> window_p99_us;
  /// Traced phases: wire stage micros by stage id, server turnaround,
  /// send -> receive minus server turnaround, and the exec timings.
  std::map<uint8_t, std::vector<double>> stage_us;
  std::vector<double> server_us;
  std::vector<double> residual_us;
  std::vector<double> lower_us;
  std::vector<double> refine_us;
  std::vector<double> run_us;
  /// The first few mismatches, for the log.
  std::vector<std::string> errors;

  void Merge(const PhaseResult& other);
};

/// The benchmark's own non-blocking load generator: one thread, up to
/// `num_conns` loopback connections, µs-resolution waits (`ppoll`), parse
/// and execute frames through the public wire.h codec. Every response is
/// decoded and checked against its pool entry's reference.
class Driver {
 public:
  /// Opens `num_conns` connections to `server`, spread evenly over its
  /// event loops (see driver.cc), and pre-encodes the workload's frames.
  static sqlpl::Result<std::unique_ptr<Driver>> Connect(
      const sqlpl::net::SqlServer& server, size_t num_conns,
      const Workload* workload);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Teaches the server every dialect of the workload (`Workload::teach`)
  /// and checks each answer. Part of the measured set-up.
  sqlpl::Status Teach();

  PhaseResult Run(const PhaseOptions& options);

 private:
  struct Conn;
  struct Pending {
    uint64_t id = UINT64_MAX;
    /// Pool entry, or kValidateTag for a teaching ValidateSpec frame.
    uint32_t pool = 0;
    uint32_t conn = 0;
    /// Teaching ValidateSpec frames: the dialect being taught.
    uint32_t dialect = 0;
    uint64_t due_ns = 0;
    uint64_t send_ns = 0;
    bool done = true;
  };

  Driver(const Workload* workload, std::vector<std::unique_ptr<Conn>> conns);

  /// Resets the per-phase state.
  void BeginPhase(const PhaseOptions& options, PhaseResult* result);
  void Send(size_t conn, uint32_t pool, uint64_t due_ns);
  bool Flush();
  /// Waits up to `timeout_ns` for readable (or, with pending output,
  /// writable) sockets and handles every complete response frame.
  /// Returns false on a broken connection.
  bool Poll(uint64_t timeout_ns);
  /// Records a sent request in its ring slot; a slot still in flight
  /// 65536 requests later is counted as failed.
  void Track(const Pending& pending);
  /// The in-flight entry of request `id`, or null when `id` is not in
  /// flight in the current phase.
  Pending* Slot(uint64_t id);
  void Complete(uint64_t id, bool ok, const std::string& why, uint64_t recv_ns);
  /// Records a latency: open loop, for the phase; closed loop, for the
  /// current window (only the window's percentiles are kept).
  void RecordLatency(double latency_us);

  const Workload* workload_;
  std::vector<std::unique_ptr<Conn>> conns_;
  /// Pre-encoded fingerprint-identity frames per pool entry, untraced and
  /// traced; `Send` patches the request id (and trace id) in place.
  std::vector<std::string> frames_;
  std::vector<std::string> traced_frames_;
  uint64_t next_id_ = 0;

  // --- the current phase ---------------------------------------------
  PhaseOptions options_;
  PhaseResult* result_ = nullptr;
  uint64_t window_ns_ = 1;
  /// In-flight bookkeeping: a ring indexed by request id, so the
  /// generator's memory does not grow with throughput.
  static constexpr size_t kSlots = 1 << 16;
  std::vector<Pending> pending_ = std::vector<Pending>(kSlots);
  uint64_t base_id_ = 0;
  size_t outstanding_ = 0;
  /// Closed loop: correct completions so far, and the connections whose
  /// completion freed a window slot.
  uint64_t completed_ = 0;
  std::vector<size_t> freed_;
  /// Closed loop: latencies of the requests completed in the current
  /// window.
  std::vector<double> window_latency_us_;

  /// Reused by every `Poll`: the pollfd set and the receive buffer.
  std::vector<pollfd> pollfds_;
  std::vector<uint8_t> scratch_ = std::vector<uint8_t>(256 * 1024);
};

}  // namespace e2ebench

#endif  // E2EBENCH_DRIVER_H_
