// lacc_bench — the repository's benchmark.
//
//   lacc_bench --workload <name>|all --seed N [--seconds S] [--trace 0|1]
//              [--json FILE] [--trace-out FILE] [--smoke]
//
// Runs one workload (or each in its own process for `all`), checks every
// output against a reference, and prints `workload metric value unit` for
// every metric.  An untraced run (--trace 0) reports the end-to-end table;
// a traced run reports the per-layer table, split between an untraced and
// a traced half so the tracing overhead is measured too.  Both report the
// wall-clock table from their untraced phase.  --json appends
// one JSON line per workload run; --trace-out writes the traced half's
// spans as Chrome trace-event JSON.  Nothing is printed for a workload whose
// output is wrong, and the exit code is then non-zero.
#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "metrics.hpp"
#include "percentile.hpp"
#include "sim/runtime.hpp"
#include "support/error.hpp"
#include "workload.hpp"

extern char** environ;

namespace lacc_bench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRuns = 3;
/// Empty 4-rank SPMD sessions timed for sim.session_us_p50.
constexpr int kSessionProbes = 500;
/// Spans written by --trace-out at most (the rest are counted as dropped).
constexpr std::size_t kMaxTraceEvents = 200000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string json;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lacc_bench: " << why << "\n"
            << "usage: lacc_bench --workload <name>|all --seed N [--seconds S]"
               " [--trace 0|1] [--json FILE] [--trace-out FILE] [--smoke]\n"
            << "workloads:";
  for (const auto& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(1);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size())
    usage("bad value for " + flag + ": " + text);
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = parse_number<double>(flag, value);
      if (!(o.seconds > 0 && o.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--json") {
      o.json = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (o.workload != "all" && make_workload(o.workload, o.smoke) == nullptr)
    usage("unknown workload " + o.workload);
  if (o.smoke) o.seconds = std::min(o.seconds, 1.0);
  return o;
}

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ec == std::errc() ? end : buf);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  return 0;
}

double session_us_p50() {
  std::vector<double> us;
  for (int i = 0; i < kSessionProbes; ++i) {
    const auto t0 = Clock::now();
    lacc::sim::run_spmd(kRanks, machine(), [](lacc::sim::Comm&) {});
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

struct Result {
  Report metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void set_wall_clock(Report& r, const Phase& p) {
  if (p.op_ms.empty()) throw lacc::Error("the timed phase completed no op");
  r.set("op_ms_p50", median(p.op_ms));
  r.set("op_ms_p90", percentile(p.op_ms, 0.9));
  r.set("op_ms_p99w", windowed_p99(p.op_at_s, p.op_ms, 1.0));
  r.set("cpu_ms_per_op",
        p.cpu_seconds * 1e3 / static_cast<double>(p.op_ms.size()));
}

Result run_untraced(Workload& w, const Options& o) {
  std::vector<double> setups;
  for (int i = 0; i < (o.smoke ? 1 : kSetupRuns); ++i) {
    const auto t0 = Clock::now();
    w.setup(o.seed);
    setups.push_back(seconds_since(t0));
  }
  const Phase p = w.run(o.seconds, nullptr, nullptr);
  Result r{Report(kEndToEnd, kWallClock), p.attempted, p.failed};
  set_wall_clock(r.metrics, p);
  r.metrics.set("setup_s", median(setups));
  r.metrics.set("modeled_ms_p50", median(p.modeled_ms));
  r.metrics.set("peak_rss_mb", peak_rss_mb());
  return r;
}

Result run_traced(Workload& w, const Options& o) {
  w.setup(o.seed);
  const Phase untraced = w.run(o.seconds / 2, nullptr, nullptr);
  w.setup(o.seed);
  Tracer tracer;
  Result r{Report(kWallClock, kPerLayer), 0, 0};
  const Phase traced = w.run(o.seconds / 2, &tracer, &r.metrics);
  r.attempted = untraced.attempted + traced.attempted;
  r.failed = untraced.failed + traced.failed;

  set_wall_clock(r.metrics, untraced);
  r.metrics.set("graph.gen_s", w.gen_seconds);
  r.metrics.set("sim.session_us_p50", session_us_p50());
  const double base = median(untraced.op_ms);
  r.metrics.set("trace.overhead_pct",
                base > 0 ? (median(traced.op_ms) - base) / base * 100 : 0);
  r.metrics.set("trace.spans", static_cast<double>(tracer.span_count()));
  const auto self = tracer.self_seconds_by_layer();
  double total = 0;
  for (const auto& [layer, s] : self) total += s;
  for (const auto& [layer, s] : self)
    r.metrics.set("trace." + layer + ".self_share", total > 0 ? s / total : 0);
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    tracer.write_chrome(out, kMaxTraceEvents);
    if (!out) throw lacc::Error("cannot write " + o.trace_out);
  }
  return r;
}

void emit(const Options& o, const Result& r) {
  for (const auto& [def, value] : r.metrics.values())
    std::cout << o.workload << " " << def.name << " " << number(value) << " "
              << def.unit << "\n";
  std::cout.flush();
  if (o.json.empty()) return;
  std::ofstream out(o.json, std::ios::app);
  out << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
      << ",\"seconds\":" << number(o.seconds)
      << ",\"trace\":" << (o.trace ? 1 : 0)
      << ",\"correct\":true,\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed << ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [def, value] : r.metrics.values()) {
    out << sep << "\"" << def.name << "\":{\"value\":" << number(value)
        << ",\"unit\":\"" << def.unit << "\"}";
    sep = ",";
  }
  out << "}}\n";
  if (!out) throw lacc::Error("cannot write " + o.json);
}

int run_one(const Options& o) {
  const std::unique_ptr<Workload> w = make_workload(o.workload, o.smoke);
  try {
    emit(o, o.trace ? run_traced(*w, o) : run_untraced(*w, o));
    return 0;
  } catch (const Mismatch& e) {
    std::cerr << "lacc_bench: " << o.workload << ": wrong output: " << e.what()
              << "\n";
    return 2;
  }
}

/// `all`: each workload in its own process, so peak RSS and set-up are
/// per workload.
int run_all(const Options& o) {
  int status = 0;
  for (const std::string& name : workload_names()) {
    std::vector<std::string> args = {
        "lacc_bench",      "--workload", name,
        "--seed",          std::to_string(o.seed),
        "--seconds",       number(o.seconds),
        "--trace",         o.trace ? "1" : "0"};
    if (o.smoke) args.push_back("--smoke");
    if (!o.json.empty()) args.insert(args.end(), {"--json", o.json});
    if (!o.trace_out.empty())
      args.insert(args.end(),
                  {"--trace-out", o.trace_out + "." + name + ".json"});
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0)
      throw lacc::Error("cannot start a workload process");
    int wstatus = 0;
    if (waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
        WEXITSTATUS(wstatus) != 0) {
      std::cerr << "lacc_bench: workload " << name << " failed\n";
      status = 2;
    }
  }
  return status;
}

}  // namespace
}  // namespace lacc_bench

int main(int argc, char** argv) {
  using namespace lacc_bench;
  const Options o = parse(argc, argv);
  try {
    return o.workload == "all" ? run_all(o) : run_one(o);
  } catch (const std::exception& e) {
    std::cerr << "lacc_bench: " << o.workload << ": " << e.what() << "\n";
    return 3;
  }
}
