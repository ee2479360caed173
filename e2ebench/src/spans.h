#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace e2ebench {

/// Benchmark-side spans around calls into each layer's public functions.
/// Spans stay in memory and are written out as Chrome-trace JSON when the
/// run ends. A disabled log records nothing and costs one branch.
class SpanLog {
 public:
  struct Span {
    const char* name;  // static string: "<layer>.<call>"
    uint64_t start_ns;
    uint64_t dur_ns;
    /// Spans of one replayed request share this id (0 = per-dialect work).
    uint64_t request;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Runs `fn` and records its wall time under `name`.
  template <typename Fn>
  decltype(auto) Time(const char* name, uint64_t request, Fn&& fn) {
    if (!enabled_) return std::forward<Fn>(fn)();
    struct Recorder {
      SpanLog* log;
      const char* name;
      uint64_t request;
      uint64_t start = NowNs();
      ~Recorder() { log->Add(name, start, NowNs() - start, request); }
    } recorder{this, name, request};
    return std::forward<Fn>(fn)();
  }

  /// True once the log holds its maximum number of spans.
  bool full() const { return spans_.size() >= kMaxSpans; }

  void Add(const char* name, uint64_t start_ns, uint64_t dur_ns,
           uint64_t request) {
    if (enabled_ && spans_.size() < kMaxSpans) {
      spans_.push_back(Span{name, start_ns, dur_ns, request});
    }
  }

  /// Durations (µs) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.dur_ns) / 1e3);
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, µs timestamps).
  bool WriteChromeJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"e2ebench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"request\":%llu}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<unsigned long long>(s.request));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  // Bounds the memory of a traced run and its trace file (~35 MB).
  static constexpr size_t kMaxSpans = 1 << 18;
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
