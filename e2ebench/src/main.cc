// End-to-end wire benchmark of sqlpl (see ../README.md).
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file.json>] [--dump-inputs]
//
// Starts a `net::SqlServer` in-process on loopback (default ServerOptions,
// default DialectService), loads it from one generator thread over at most
// nproc connections, checks every response against a reference that does
// not come from the serving path, and prints one JSON result as the last
// line of stdout. Exit status 0 only when every response was correct.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "driver.h"
#include "inputs.h"
#include "layers.h"
#include "reference.h"
#include "spans.h"
#include "sqlpl/net/sql_server.h"
#include "sqlpl/service/dialect_service.h"

namespace e2ebench {
namespace {

namespace net = sqlpl::net;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool dump_inputs = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--dump-inputs") {
      args->dump_inputs = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (flag == "--workload") {
      args->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::string(v) == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  size_t start = s.find_first_not_of(' ');
  return start == std::string::npos ? "" : s.substr(start);
}

/// Where a run was taken. Results are only comparable between equal
/// host blocks (README.md, "Host block").
std::string HostJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = Trim(line.substr(line.find(':') + 1));
      break;
    }
  }
  utsname uts{};
  uname(&uts);
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"kernel\": \"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(cpu).c_str(),
                E2EBENCH_COMPILER, E2EBENCH_BUILD_TYPE,
                JsonEscape(uts.release).c_str());
  return buf;
}

/// Median of whole-microsecond wire timings (differences of two
/// microsecond stamps, so a reading m stands for [m - 0.5, m + 0.5)),
/// interpolated within the median microsecond (the grouped-data median):
/// a stage that moves by less than 1 µs still moves the figure, and a
/// stage that always reads 0 stays 0. 0 for no samples.
double WireMedian(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double half = static_cast<double>(v.size()) / 2;
  const double m = v[v.size() / 2];
  const auto below = std::lower_bound(v.begin(), v.end(), m) - v.begin();
  const auto equal = std::upper_bound(v.begin(), v.end(), m) - v.begin() - below;
  return std::max(0.0, m - 0.5 + (half - static_cast<double>(below)) /
                                    static_cast<double>(equal));
}

/// The closed loop is measured in windows of this length, and each
/// end-to-end time or rate is the best decile of the per-window values:
/// the 10th percentile (the 90th for a rate, where higher is better).
/// Contention from outside the process inflates the windows it falls in;
/// the best tenth stays clean unless it covers nine tenths of the phase,
/// where a median gives way at half.
constexpr double kWindowSeconds = 0.1;
constexpr double kWindowQuantile = 0.1;

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A running server stack: service, server, and the load driver.
struct Stack {
  std::unique_ptr<sqlpl::DialectService> service;
  std::unique_ptr<net::SqlServer> server;
  std::unique_ptr<Driver> driver;

  ~Stack() {
    driver.reset();
    if (server) server->Stop();
    server.reset();
    service.reset();
  }
};

/// The measured set-up: DialectService, table registration,
/// SqlServer::Start, connecting, and teaching the workload's dialects.
/// The bench table itself is generated once, untimed, with the references.
sqlpl::Status SetUp(const Workload& w, const ReferenceTables& tables, size_t conns,
                    Stack* stack) {
  stack->service = std::make_unique<sqlpl::DialectService>();
  if (tables.bench) SQLPL_RETURN_IF_ERROR(stack->service->tables().Register(tables.bench));
  stack->server = std::make_unique<net::SqlServer>(stack->service.get());
  SQLPL_RETURN_IF_ERROR(stack->server->Start());
  SQLPL_ASSIGN_OR_RETURN(stack->driver,
                         Driver::Connect(*stack->server, conns, &w));
  return stack->driver->Teach();
}

/// Server-side counters the traced run turns into per-request ratios.
struct Counters {
  sqlpl::ParserCacheStats cache;
  double busy = 0, idle = 0, wakeups = 0, steals = 0;
  double tokens = 0, arena = 0, skips = 0, batches = 0;
};

Counters ReadCounters(Stack& s) {
  Counters c;
  c.cache = s.service->cache().stats();
  sqlpl::obs::MetricsRegistry& m = s.service->metrics();
  for (size_t i = 0; i < s.server->options().num_loops; ++i) {
    sqlpl::obs::Labels loop = {{"loop", std::to_string(i)}};
    sqlpl::obs::Labels shard = {{"shard", std::to_string(i)}};
    c.busy += m.GetCounter("sqlpl_net_loop_busy_micros_total", loop)->Value();
    c.idle += m.GetCounter("sqlpl_net_loop_idle_micros_total", loop)->Value();
    c.wakeups += m.GetCounter("sqlpl_net_loop_wakeups_total", loop)->Value();
    c.steals += m.GetCounter("sqlpl_net_shard_steals_total", shard)->Value();
  }
  c.tokens = m.GetCounter("sqlpl_tokens_total")->Value();
  c.arena = m.GetCounter("sqlpl_arena_bytes_total")->Value();
  c.skips = m.GetCounter("sqlpl_fm_validate_skips_total")->Value();
  c.batches = m.GetCounter("sqlpl_exec_batches_total")->Value();
  return c;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Report(const std::string& workload, const std::vector<Metric>& metrics,
            const PhaseResult& total, const std::string& note) {
  std::printf("host %s\n", HostJson().c_str());
  for (const Metric& m : metrics) {
    std::printf("%s %-28s %14.3f %s\n", workload.c_str(), m.name.c_str(), m.value, m.unit);
  }
  if (!note.empty()) std::printf("%s %s\n", workload.c_str(), note.c_str());
  std::string json = "{\"correct\": ";
  json += total.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e12;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  // A fixed mmap threshold turns off glibc's adaptive one, whose state
  // depends on the allocation history (set-ups, batch sizes, thread
  // timing): every block of 1 MiB or more is mapped and unmapped on its
  // own, so peak RSS reflects live memory rather than allocator history.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  sqlpl::Result<Workload> made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  Workload w = std::move(made).value();
  if (args.dump_inputs) {
    std::fputs(SerializeInputs(w).c_str(), stdout);
    return 0;
  }

  // References first, untimed. The traced run spans validate, compose
  // and build here (once per dialect).
  SpanLog spans(args.trace);
  const ReferenceTables tables = MakeReferenceTables(w);
  double productions = 0;
  sqlpl::Status refs = ComputeReferences(&w, tables, &spans, &productions);
  if (!refs.ok()) {
    std::fprintf(stderr, "reference computation failed: %s\n", refs.ToString().c_str());
    return 2;
  }

  const size_t conns = std::clamp<long>(sysconf(_SC_NPROCESSORS_ONLN), 1, 4);
  // Set-up is repeated and its median reported; the last stack serves.
  const int setups = args.trace ? 1 : 15;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    stack = std::make_unique<Stack>();
    const uint64_t t0 = NowNs();
    sqlpl::Status up = SetUp(w, tables, conns, stack.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!up.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", up.ToString().c_str());
      return 2;
    }
  }
  Driver& driver = *stack->driver;
  // µs-resolution waits for the generator thread only; the server's
  // threads were created earlier and keep the default timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  PhaseResult total;
  auto log_errors = [&](const PhaseResult& r, const char* phase) {
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "[%s] %s: %s\n", w.name.c_str(), phase, e.c_str());
    }
    total.Merge(r);
  };

  // Untimed warm-up: lazy builds (e.g. the refinement parser) finish and
  // the parser cache reaches its steady state.
  PhaseOptions warm;
  warm.open_loop = false;
  warm.window_per_conn = w.window_per_conn;
  warm.seconds = std::min(0.5, args.seconds * 0.05);
  log_errors(driver.Run(warm), "warm-up");

  // The end-to-end figures come from the closed loop only. The open
  // loop's latency is the time idle vCPUs take to wake on a busy host as
  // much as the program's (README.md, "Why the closed loop"), so it is a
  // per-layer diagnostic of the traced run.
  PhaseOptions open;
  open.open_loop = true;
  open.rate = w.open_rate;
  PhaseOptions closed;
  closed.open_loop = false;
  closed.window_per_conn = w.window_per_conn;
  closed.window_s = kWindowSeconds;

  std::vector<Metric> metrics;
  std::string note;
  if (!args.trace) {
    closed.seconds = args.seconds;
    PhaseResult c = driver.Run(closed);
    log_errors(c, "closed loop");
    metrics = {
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"sat_p50_us", Percentile(c.window_p50_us, kWindowQuantile), "us"},
        {"sat_p90_us", Percentile(c.window_p90_us, kWindowQuantile), "us"},
        {"sat_rps", Percentile(c.window_rps, 1 - kWindowQuantile), "req/s"},
        {"cpu_us_per_req", Percentile(c.window_cpu_us_per_req, kWindowQuantile), "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    note = "closed loop: " + std::to_string(c.attempted) + " requests, " +
           std::to_string(w.window_per_conn * conns) + " in flight, " +
           std::to_string(c.window_rps.size()) + " windows; p99_us " +
           std::to_string(Percentile(c.window_p99_us, kWindowQuantile)) + "; set-ups (s)";
    for (double s : setup_s) note += " " + std::to_string(s);
  } else {
    // The same open loop twice, untraced then traced: the first gives the
    // overhead baseline and the generator diagnostics, the second the
    // stage table and the server counters over the phase.
    open.seconds = args.seconds * 0.4;
    PhaseResult plain = driver.Run(open);
    log_errors(plain, "open loop");
    const Counters before = ReadCounters(*stack);
    PhaseOptions traced_open = open;
    traced_open.traced = true;
    PhaseResult t = driver.Run(traced_open);
    log_errors(t, "traced open loop");
    const Counters after = ReadCounters(*stack);

    const ReplayTotals replay = ReplayLayers(w, tables, &spans, args.seconds * 0.2);

    const double requests = std::max<double>(1, static_cast<double>(t.attempted));
    const double exec_requests =
        w.pool.front().kind == Kind::kExecute ? requests : 0;
    const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
    const double misses = static_cast<double>(after.cache.misses - before.cache.misses);
    auto stage = [&](net::WireStage s) {
      return WireMedian(t.stage_us[static_cast<uint8_t>(s)]);
    };
    auto span = [&](const char* name) { return Percentile(spans.DurationsUs(name), 0.5); };
    std::vector<double> build;
    {
      std::vector<double> composed = spans.DurationsUs("compose.compose");
      std::vector<double> built = spans.DurationsUs("parser.build_parser");
      for (size_t i = 0; i < std::min(composed.size(), built.size()); ++i) {
        build.push_back(built[i] - composed[i]);
      }
    }
    const double tokenize_s = Sum(spans.DurationsUs("lexer.tokenize")) / 1e6;
    const double execute_s = Sum(spans.DurationsUs("exec.execute_call")) / 1e6;
    const double p50_plain = Percentile(plain.latency_us, 0.5);
    const double p50_traced = Percentile(t.latency_us, 0.5);
    metrics = {
        {"net.decode_us", stage(net::WireStage::kDecode), "us"},
        {"net.queue_us", stage(net::WireStage::kQueue), "us"},
        {"net.encode_us", stage(net::WireStage::kEncode), "us"},
        {"net.server_us", WireMedian(t.server_us), "us"},
        {"net.residual_us", Percentile(t.residual_us, 0.5), "us"},
        {"net.wakeups_per_req", (after.wakeups - before.wakeups) / requests, "count"},
        {"net.loop_busy_frac",
         (after.busy - before.busy) /
             std::max(1.0, after.busy - before.busy + after.idle - before.idle),
         "ratio"},
        {"net.steals_per_req", (after.steals - before.steals) / requests, "count"},
        {"net.decode_call_us", span("net.decode_call"), "us"},
        {"net.encode_call_us", span("net.encode_call"), "us"},
        {"service.admission_us", stage(net::WireStage::kAdmission), "us"},
        {"service.cache_hit_ratio", hits / std::max(1.0, hits + misses), "ratio"},
        {"service.builds_per_kreq",
         static_cast<double>(after.cache.builds - before.cache.builds) * 1000 / requests,
         "count"},
        {"service.evictions_per_kreq",
         static_cast<double>(after.cache.evictions - before.cache.evictions) * 1000 / requests,
         "count"},
        {"service.coalesced_ratio",
         static_cast<double>(after.cache.coalesced_waits - before.cache.coalesced_waits) /
             std::max(1.0, misses),
         "ratio"},
        {"service.validate_skip_ratio", (after.skips - before.skips) / requests, "ratio"},
        {"service.get_parser_hit_us", span("service.get_parser"), "us"},
        {"service.fingerprint_us", span("service.fingerprint"), "us"},
        {"fm.validate_us", span("fm.validate"), "us"},
        {"compose.compose_us", span("compose.compose"), "us"},
        {"compose.productions", productions, "count"},
        {"parser.build_us", Percentile(build, 0.5), "us"},
        {"parser.parse_us", stage(net::WireStage::kParse), "us"},
        {"parser.render_us", stage(net::WireStage::kRender), "us"},
        {"parser.render_call_us", span("parser.render_call"), "us"},
        {"parser.tokens_per_req", (after.tokens - before.tokens) / requests, "count"},
        {"parser.arena_bytes_per_req", (after.arena - before.arena) / requests, "bytes"},
        {"parser.parsenode_call_us", span("parser.parsenode_call"), "us"},
        {"lexer.tokenize_us", span("lexer.tokenize"), "us"},
        {"lexer.mb_per_s",
         tokenize_s > 0 ? static_cast<double>(replay.bytes_lexed) / 1e6 / tokenize_s : 0,
         "MB/s"},
        {"semantics.ast_build_us", span("semantics.ast_build"), "us"},
        {"exec.lower_us", WireMedian(t.lower_us), "us"},
        {"exec.refine_us", WireMedian(t.refine_us), "us"},
        {"exec.lowering_call_us", span("exec.lowering_call"), "us"},
        {"exec.run_us", WireMedian(t.run_us), "us"},
        {"exec.execute_call_us", span("exec.execute_call"), "us"},
        {"exec.scan_rows_per_s",
         execute_s > 0 ? static_cast<double>(replay.rows_scanned) / execute_s : 0, "1/s"},
        {"exec.batches_per_req",
         exec_requests > 0 ? (after.batches - before.batches) / exec_requests : 0, "count"},
        {"obs.trace_overhead_pct",
         p50_plain > 0 ? (p50_traced - p50_plain) / p50_plain * 100 : 0, "%"},
        {"gen.open_p50_us", p50_plain, "us"},
        {"gen.open_p90_us", Percentile(plain.latency_us, 0.9), "us"},
        {"gen.lag_p99_us", Percentile(plain.lag_us, 0.99), "us"},
        {"gen.latency_p99_us", Percentile(plain.latency_us, 0.99), "us"},
        {"gen.samples", static_cast<double>(plain.latency_us.size()), "count"},
    };
    note = "replayed " + std::to_string(replay.requests) + " requests in-process; " +
           std::to_string(t.server_us.size()) + " traced responses";
    if (!args.trace_out.empty() && !spans.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  Report(w.name, metrics, total, note);
  return total.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--dump-inputs]\n");
    return 2;
  }
  return e2ebench::Run(args);
}
