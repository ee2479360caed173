#include "driver.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "reference.h"
#include "sqlpl/net/wire.h"

namespace e2ebench {

namespace net = sqlpl::net;

namespace {

// Pending-entry tag for ValidateSpec frames sent while teaching.
constexpr uint32_t kValidateTag = std::numeric_limits<uint32_t>::max();
// How long a phase waits for stragglers after its last send before it
// counts them as failed.
constexpr uint64_t kDrainNs = 5'000'000'000ULL;
// Offset of the request id inside every request frame (after the
// uint32 length and the type byte).
constexpr size_t kRequestIdOffset = net::kFrameHeaderBytes + 1;
// A traced request frame ends with its trace context (trace_id u64,
// span_id u64), the only extension the benchmark sends.
constexpr size_t kTraceTailBytes = 16;
constexpr size_t kMaxErrors = 5;

void PutLe64(std::string* s, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*s)[off + i] = static_cast<char>(v >> (8 * i));
}

double CpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::string EncodePoolFrame(const Workload& w, const Request& r, bool traced,
                            bool inline_spec) {
  const Dialect& d = w.dialects[r.dialect];
  sqlpl::TraceContext trace;
  if (traced) trace = {1, 1};
  std::string frame;
  if (r.kind == Kind::kParse) {
    net::WireParseRequest req;
    req.want_tree = true;
    req.has_spec = inline_spec;
    if (inline_spec) req.spec = d.spec;
    req.fingerprint = d.fingerprint;
    req.sql = r.sql;
    req.trace = trace;
    net::EncodeRequestFrame(req, &frame);
  } else {
    net::WireExecuteRequest req;
    req.has_spec = inline_spec;
    if (inline_spec) req.spec = d.spec;
    req.fingerprint = d.fingerprint;
    req.sql = r.sql;
    req.max_rows = r.max_rows;
    req.trace = trace;
    net::EncodeExecuteRequestFrame(req, &frame);
  }
  return frame;
}

// Confirms the patch offsets against the codec once: a patched traced
// frame must decode with the patched ids.
sqlpl::Status CheckPatchOffsets(std::string frame, Kind kind) {
  PutLe64(&frame, kRequestIdOffset, 0x1122334455667788ULL);
  PutLe64(&frame, frame.size() - kTraceTailBytes, 0x99);
  std::span<const uint8_t> payload(
      reinterpret_cast<const uint8_t*>(frame.data()) + net::kFrameHeaderBytes,
      frame.size() - net::kFrameHeaderBytes);
  uint64_t id = 0;
  uint64_t trace = 0;
  if (kind == Kind::kParse) {
    net::WireParseRequest req;
    SQLPL_RETURN_IF_ERROR(net::DecodeRequestPayload(payload, &req));
    id = req.request_id;
    trace = req.trace.trace_id;
  } else {
    net::WireExecuteRequest req;
    SQLPL_RETURN_IF_ERROR(net::DecodeExecuteRequestPayload(payload, &req));
    id = req.request_id;
    trace = req.trace.trace_id;
  }
  if (id != 0x1122334455667788ULL || trace != 0x99) {
    return sqlpl::Status::Internal("request frame layout changed");
  }
  return sqlpl::Status::OK();
}

}  // namespace

struct Driver::Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  size_t in_off = 0;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

void PhaseResult::Merge(const PhaseResult& o) {
  attempted += o.attempted;
  correct += o.correct;
  failed += o.failed;
  for (const std::string& e : o.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(e);
  }
}

Driver::Driver(const Workload* workload, std::vector<std::unique_ptr<Conn>> conns)
    : workload_(workload), conns_(std::move(conns)) {}

Driver::~Driver() = default;

sqlpl::Result<std::unique_ptr<Driver>> Driver::Connect(
    const net::SqlServer& server, size_t num_conns, const Workload* w) {
  // The kernel's SO_REUSEPORT hash decides which event loop accepts a
  // connection, so 4 connections can land 2+2 in one run and 3+1 in the
  // next, which moves throughput from run to run. Keep only connections
  // that land on a loop below its fair share; redial the others.
  const size_t loops = server.options().num_loops;
  const size_t share = (num_conns + loops - 1) / loops;
  auto counts = [&] {
    std::vector<int64_t> c(loops);
    for (size_t i = 0; i < loops; ++i) c[i] = server.loop_connections(i);
    return c;
  };
  // Waits until the loops' connection gauges differ from `from`; returns
  // the loop whose count changed, or `loops` on timeout.
  auto changed = [&](const std::vector<int64_t>& from) {
    for (const uint64_t stop = NowNs() + 2'000'000'000ULL; NowNs() < stop;) {
      std::vector<int64_t> now = counts();
      for (size_t i = 0; i < loops; ++i) {
        if (now[i] != from[i]) return i;
      }
      usleep(50);
    }
    return loops;
  };
  std::vector<std::unique_ptr<Conn>> conns;
  for (int attempt = 0; conns.size() < num_conns; ++attempt) {
    if (attempt == 200) return sqlpl::Status::Unavailable("cannot balance connections");
    const std::vector<int64_t> before = counts();
    auto conn = std::make_unique<Conn>();
    conn->fd = socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) return sqlpl::Status::Unavailable("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return sqlpl::Status::Unavailable(std::string("connect: ") + strerror(errno));
    }
    const size_t loop = changed(before);
    if (loop == loops) return sqlpl::Status::Unavailable("connection never accepted");
    if (static_cast<size_t>(before[loop]) >= share) {
      const std::vector<int64_t> accepted = counts();
      conn.reset();  // closes; wait until the server has seen it
      if (changed(accepted) == loops) {
        return sqlpl::Status::Unavailable("redialed connection never closed");
      }
      continue;
    }
    int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK) != 0) {
      return sqlpl::Status::Unavailable("cannot make socket non-blocking");
    }
    conns.push_back(std::move(conn));
  }
  std::unique_ptr<Driver> driver(new Driver(w, std::move(conns)));
  bool checked[2] = {false, false};
  for (const Request& r : w->pool) {
    driver->frames_.push_back(EncodePoolFrame(*w, r, false, false));
    driver->traced_frames_.push_back(EncodePoolFrame(*w, r, true, false));
    bool& done = checked[r.kind == Kind::kParse ? 0 : 1];
    if (!done) {
      SQLPL_RETURN_IF_ERROR(CheckPatchOffsets(driver->traced_frames_.back(), r.kind));
      done = true;
    }
  }
  return driver;
}

void Driver::BeginPhase(const PhaseOptions& options, PhaseResult* result) {
  options_ = options;
  result_ = result;
  window_ns_ = std::max<uint64_t>(1, static_cast<uint64_t>(options.window_s * 1e9));
  base_id_ = next_id_;
  outstanding_ = 0;
  completed_ = 0;
  freed_.clear();
  window_latency_us_.clear();
}

void Driver::RecordLatency(double latency_us) {
  if (options_.open_loop) {
    result_->latency_us.push_back(latency_us);
  } else {
    window_latency_us_.push_back(latency_us);
  }
}

void Driver::Send(size_t conn, uint32_t pool, uint64_t due_ns) {
  const uint64_t id = next_id_++;
  Conn& c = *conns_[conn];
  const std::string& frame = options_.traced ? traced_frames_[pool] : frames_[pool];
  const size_t at = c.out.size();
  c.out.append(frame);
  PutLe64(&c.out, at + kRequestIdOffset, id);
  if (options_.traced) {
    PutLe64(&c.out, at + frame.size() - kTraceTailBytes, id + 1);
    PutLe64(&c.out, at + frame.size() - kTraceTailBytes + 8, id + 1);
  }
  Track(Pending{id, pool, static_cast<uint32_t>(conn), 0, due_ns, NowNs(), false});
}

void Driver::Track(const Pending& pending) {
  Pending& slot = pending_[pending.id % kSlots];
  if (!slot.done && slot.id >= base_id_) {
    --outstanding_;
    ++result_->failed;
    if (result_->errors.size() < kMaxErrors) {
      result_->errors.push_back("no response while 65536 later requests were sent");
    }
    RecordLatency(std::numeric_limits<double>::infinity());
  }
  slot = pending;
  ++outstanding_;
}

Driver::Pending* Driver::Slot(uint64_t id) {
  Pending& slot = pending_[id % kSlots];
  return id >= base_id_ && slot.id == id && !slot.done ? &slot : nullptr;
}

bool Driver::Flush() {
  for (auto& conn : conns_) {
    Conn& c = *conn;
    while (c.out_off < c.out.size()) {
      ssize_t n = send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                       MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }
  return true;
}

void Driver::Complete(uint64_t id, bool ok, const std::string& why, uint64_t recv_ns) {
  PhaseResult& result = *result_;
  if (id < base_id_) return;  // straggler of an earlier phase
  Pending* slot = Slot(id);
  if (slot == nullptr) {
    ++result.failed;
    if (result.errors.size() < kMaxErrors) {
      result.errors.push_back("unexpected response id " + std::to_string(id));
    }
    return;
  }
  Pending& p = *slot;
  p.done = true;
  --outstanding_;
  if (ok) {
    ++result.correct;
  } else {
    ++result.failed;
    if (result.errors.size() < kMaxErrors) {
      std::string what = p.pool == kValidateTag ? "ValidateSpec"
                                                : workload_->pool[p.pool].sql;
      result.errors.push_back(why + " [" + what.substr(0, 120) + "]");
    }
  }
  RecordLatency(ok ? static_cast<double>(recv_ns - p.due_ns) / 1e3
                   : std::numeric_limits<double>::infinity());
  if (options_.open_loop) {
    result.lag_us.push_back(static_cast<double>(p.send_ns - p.due_ns) / 1e3);
  } else {
    if (ok) ++completed_;
    freed_.push_back(p.conn);
  }
}

bool Driver::Poll(uint64_t timeout_ns) {
  std::vector<pollfd>& fds = pollfds_;
  fds.clear();
  for (const auto& c : conns_) {
    short events = POLLIN;
    if (c->out_off < c->out.size()) events |= POLLOUT;
    fds.push_back(pollfd{c->fd, events, 0});
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000ULL),
              static_cast<long>(timeout_ns % 1000000000ULL)};
  int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) return errno == EINTR;
  if (ready == 0) return true;
  PhaseResult& result = *result_;
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) return false;
    if (!(fds[i].revents & POLLIN)) continue;
    Conn& c = *conns_[i];
    for (;;) {
      ssize_t n = recv(c.fd, scratch_.data(), scratch_.size(), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), scratch_.begin(), scratch_.begin() + n);
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) return false;
    }
    const uint64_t recv_ns = NowNs();
    for (;;) {
      std::span<const uint8_t> unread(c.in.data() + c.in_off, c.in.size() - c.in_off);
      sqlpl::Result<size_t> size = net::CompleteFrameSize(unread, net::kDefaultMaxFrameBytes);
      if (!size.ok()) return false;
      if (*size == 0) break;
      std::span<const uint8_t> payload =
          unread.subspan(net::kFrameHeaderBytes, *size - net::kFrameHeaderBytes);
      c.in_off += *size;
      auto record_trace = [&](const Pending& p, const std::vector<net::WireStageTiming>& stages,
                              uint32_t server_micros) {
        for (const net::WireStageTiming& s : stages) {
          result.stage_us[s.stage].push_back(s.micros);
        }
        result.server_us.push_back(server_micros);
        result.residual_us.push_back(static_cast<double>(recv_ns - p.send_ns) / 1e3 -
                                     server_micros);
      };
      std::string why;
      switch (static_cast<net::WireType>(net::PayloadType(payload))) {
        case net::WireType::kParseResponse: {
          net::WireParseResponse resp;
          if (!net::DecodeResponsePayload(payload, &resp).ok()) return false;
          const Pending* p = Slot(resp.request_id);
          bool ok = false;
          if (p != nullptr) {
            const Request& r = workload_->pool[p->pool];
            ok = r.kind == Kind::kParse && CheckParse(r, resp, &why);
            if (options_.traced && ok) record_trace(*p, resp.stages, resp.server_micros);
          }
          Complete(resp.request_id, ok, why, recv_ns);
          break;
        }
        case net::WireType::kExecuteResponse: {
          net::WireExecuteResponse resp;
          if (!net::DecodeExecuteResponsePayload(payload, &resp).ok()) return false;
          const Pending* p = Slot(resp.request_id);
          bool ok = false;
          if (p != nullptr) {
            const Request& r = workload_->pool[p->pool];
            ok = r.kind == Kind::kExecute && CheckExecute(r, resp, &why);
            if (options_.traced && ok) {
              record_trace(*p, resp.stages, resp.server_micros);
              result.lower_us.push_back(resp.lower_micros);
              if (r.feature_rejected) {
                result.refine_us.push_back(resp.lower_micros);
              } else {
                result.run_us.push_back(resp.exec_micros);
              }
            }
          }
          Complete(resp.request_id, ok, why, recv_ns);
          break;
        }
        case net::WireType::kValidateSpecResponse: {
          net::WireValidateResponse resp;
          if (!net::DecodeValidateResponsePayload(payload, &resp).ok()) return false;
          const Pending* p = Slot(resp.request_id);
          bool ok = false;
          if (p != nullptr && p->pool == kValidateTag) {
            const Dialect& d = workload_->dialects[p->dialect];
            ok = resp.ok() && resp.fingerprint == d.fingerprint;
            if (!ok) why = "ValidateSpec rejected " + d.spec.name + ": " + resp.message;
          }
          Complete(resp.request_id, ok, why, recv_ns);
          break;
        }
        default:
          return false;
      }
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    }
  }
  return true;
}

sqlpl::Status Driver::Teach() {
  PhaseResult result;
  PhaseOptions options;
  options.open_loop = false;
  BeginPhase(options, &result);
  for (size_t d = 0; d < workload_->dialects.size(); ++d) {
    const size_t conn = d % conns_.size();
    Conn& c = *conns_[conn];
    const uint64_t id = next_id_++;
    if (workload_->teach == Teach::kValidateSpec) {
      net::WireValidateRequest req;
      req.request_id = id;
      req.spec = workload_->dialects[d].spec;
      net::EncodeValidateRequestFrame(req, &c.out);
      Track(Pending{id, kValidateTag, static_cast<uint32_t>(conn),
                    static_cast<uint32_t>(d), 0, NowNs(), false});
    } else {
      // The dialect's first pool entry, with the spec inline: the server
      // registers the spec and builds the parser. A feature-rejected entry
      // is passed over, because its refinement re-parse would also build
      // the FullFoundation parser, making set-up time depend on the seed.
      const std::vector<Request>& requests = workload_->pool;
      uint32_t pool = 0;
      while (pool < requests.size() &&
             (requests[pool].dialect != d || requests[pool].feature_rejected)) {
        ++pool;
      }
      if (pool == requests.size()) {
        return sqlpl::Status::Internal("no request teaches dialect " +
                                       workload_->dialects[d].spec.name);
      }
      std::string frame =
          EncodePoolFrame(*workload_, workload_->pool[pool], false, true);
      PutLe64(&frame, kRequestIdOffset, id);
      c.out.append(frame);
      Track(Pending{id, pool, static_cast<uint32_t>(conn),
                    static_cast<uint32_t>(d), 0, NowNs(), false});
    }
  }
  const uint64_t deadline = NowNs() + 60'000'000'000ULL;
  while (outstanding_ > 0 && NowNs() < deadline) {
    if (!Flush() || !Poll(1'000'000)) {
      return sqlpl::Status::Unavailable("connection lost while teaching dialects");
    }
  }
  if (outstanding_ > 0) return sqlpl::Status::DeadlineExceeded("teaching timed out");
  if (result.failed > 0) {
    return sqlpl::Status::Internal("teaching failed: " + result.errors.front());
  }
  return sqlpl::Status::OK();
}

PhaseResult Driver::Run(const PhaseOptions& o) {
  PhaseResult result;
  const uint64_t start = NowNs() + 1'000'000;
  const uint64_t end = start + static_cast<uint64_t>(o.seconds * 1e9);
  BeginPhase(o, &result);
  const std::vector<uint32_t>& seq = workload_->sequence;
  size_t cursor = 0;  // every phase replays the sequence from its start
  const size_t n_conns = conns_.size();
  bool broken = false;

  if (o.open_loop) {
    const double period_ns = 1e9 / o.rate;
    uint64_t k = 0;
    auto due = [&](uint64_t i) {
      return start + static_cast<uint64_t>(static_cast<double>(i) * period_ns);
    };
    for (;;) {
      uint64_t now = NowNs();
      while (due(k) <= now && due(k) < end) {
        Send(k % n_conns, seq[cursor++ % seq.size()], due(k));
        ++k;
      }
      if (!Flush()) {
        broken = true;
        break;
      }
      const bool issuing = due(k) < end;
      if (!issuing && (outstanding_ == 0 || now > end + kDrainNs)) break;
      now = NowNs();
      const uint64_t wait = issuing ? (due(k) > now ? due(k) - now : 0) : 1'000'000;
      if (!Poll(wait)) {
        broken = true;
        break;
      }
    }
  } else {
    for (size_t c = 0; c < n_conns; ++c) {
      for (size_t i = 0; i < o.window_per_conn; ++i) {
        Send(c, seq[cursor++ % seq.size()], NowNs());
      }
    }
    // Windows: a window closes at the first check at least `window_s`
    // after it opened, and its figures use its measured length, so a
    // stalled generator lengthens a window instead of leaving empty ones.
    // The partial window at the end of the phase is dropped.
    uint64_t mark = start;
    uint64_t mark_completed = completed_;
    double mark_cpu = CpuSeconds();
    for (;;) {
      const uint64_t now = NowNs();
      if (now >= mark + window_ns_ && now <= end) {
        const double cpu = CpuSeconds();
        const double n = static_cast<double>(completed_ - mark_completed);
        result.window_rps.push_back(n * 1e9 / static_cast<double>(now - mark));
        result.window_cpu_us_per_req.push_back((cpu - mark_cpu) * 1e6 / std::max(1.0, n));
        if (!window_latency_us_.empty()) {
          result.window_p50_us.push_back(Percentile(window_latency_us_, 0.5));
          result.window_p90_us.push_back(Percentile(window_latency_us_, 0.9));
          result.window_p99_us.push_back(Percentile(window_latency_us_, 0.99));
        }
        window_latency_us_.clear();
        mark = now;
        mark_completed = completed_;
        mark_cpu = cpu;
      }
      const bool window_open = now < end;
      if (window_open) {
        for (size_t c : freed_) Send(c, seq[cursor++ % seq.size()], now);
      }
      freed_.clear();
      if (!Flush()) {
        broken = true;
        break;
      }
      if (!window_open && (outstanding_ == 0 || now > end + kDrainNs)) break;
      const uint64_t next_mark = mark + window_ns_;
      const uint64_t wait =
          window_open && next_mark > now ? std::min<uint64_t>(next_mark - now, 1'000'000)
                                         : 1'000'000;
      if (!Poll(wait)) {
        broken = true;
        break;
      }
    }
  }

  result.attempted = next_id_ - base_id_;
  for (const Pending& p : pending_) {
    if (p.done || p.id < base_id_) continue;
    ++result.failed;
    if (o.open_loop) result.latency_us.push_back(std::numeric_limits<double>::infinity());
  }
  if (outstanding_ > 0 && result.errors.size() < kMaxErrors) {
    result.errors.push_back(std::to_string(outstanding_) +
                            (broken ? " requests lost with a broken connection"
                                    : " requests never answered"));
  }
  outstanding_ = 0;
  result_ = nullptr;
  return result;
}

}  // namespace e2ebench
