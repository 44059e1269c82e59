// cc-protein and cc-sparse: repeated static lacc_dist calls.
//
// cc-protein runs the eukarya stand-in, where most components retire early
// (the paper's Fig. 7), so converged-vertex sparsity and hooking on a
// shrinking active set do the work.  cc-sparse runs the M3 stand-in, the
// paper's weak case: almost nothing converges until late and per-iteration
// latency dominates.  A gain that comes only from convergence skipping
// shows on the first and not on the second.  No stream or serve code runs.
#include <map>

#include "core/lacc_dist.hpp"
#include "percentile.hpp"
#include "sim/stats.hpp"
#include "workload.hpp"

namespace lacc_bench {
namespace {

using namespace lacc;

constexpr const char* kPhases[] = {"cond-hook", "uncond-hook", "shortcut",
                                   "starcheck"};
/// Width of the modeled-only run (wall time at 64 threads on 4 cores would
/// measure the scheduler).
constexpr int kModeledRanks = 64;

class CcWorkload final : public Workload {
 public:
  // Scale 1 puts one 4-rank call near 0.1 s on a 4-core host, so a 10 s
  // phase collects about a hundred samples.
  CcWorkload(bool sparse, bool smoke)
      : sparse_(sparse), scale_(smoke ? 0.05 : 1.0) {}

  void setup(std::uint64_t seed) override {
    const auto t0 = Clock::now();
    graph_ = sparse_ ? m3(scale_, seed) : eukarya(scale_, seed);
    gen_seconds = seconds_since(t0);
    truth_ = truth_labels(graph_);
    // The warm-up call also pins the modeled time every timed call repeats.
    const core::DistRunResult warm = core::lacc_dist(graph_, kRanks, machine());
    check_labels(warm.cc.parent);
    modeled_seconds_ = warm.modeled_seconds;
  }

  Phase run(double seconds, Tracer* tracer, Report* layers) override {
    ThreadTrace* trace = tracer != nullptr ? tracer->thread("client") : nullptr;
    std::map<std::string, std::vector<double>> phase_wall_ms;
    Phase phase;
    const auto start = Clock::now();
    const double cpu0 = cpu_seconds();
    do {
      const auto t0 = Clock::now();
      core::DistRunResult r;
      {
        Span span(trace, "core.lacc_dist", phase.attempted);
        r = core::lacc_dist(graph_, kRanks, machine());
      }
      phase.add_op(seconds_since(t0) * 1e3,
                   std::chrono::duration<double>(t0 - start).count());
      phase.modeled_ms.push_back(r.modeled_seconds * 1e3);
      ++phase.attempted;
      if (r.modeled_seconds != modeled_seconds_)
        throw Mismatch("modeled time differs between identical calls");
      check_labels(r.cc.parent);
      if (layers != nullptr) {
        const auto regions = obs::max_over_ranks(r.spmd.stats).regions;
        for (const char* p : kPhases) {
          const auto it = regions.find(p);
          phase_wall_ms[p].push_back(
              it == regions.end() ? 0 : it->second.wall_seconds * 1e3);
        }
      }
    } while (seconds_since(start) < seconds);
    phase.cpu_seconds = cpu_seconds() - cpu0;

    if (layers != nullptr) {
      for (const char* p : kPhases)
        layers->set(std::string("core.") + p + ".wall_ms",
                    median(phase_wall_ms[p]));
      report_modeled(*layers);
    }
    return phase;
  }

 private:
  void check_labels(const std::vector<VertexId>& parent) const {
    if (core::normalize_labels(parent) != truth_)
      throw Mismatch("lacc_dist labels differ from union-find");
  }

  void report_modeled(Report& layers) const {
    const core::DistRunResult r =
        core::lacc_dist(graph_, kModeledRanks, machine());
    check_labels(r.cc.parent);
    const obs::StatsSummary slowest = obs::max_over_ranks(r.spmd.stats);
    const obs::StatsSummary volume = obs::sum_over_ranks(r.spmd.stats);
    layers.set("core.modeled_ms", r.modeled_seconds * 1e3);
    layers.set("core.iterations", r.cc.iterations);
    for (const char* p : kPhases) {
      const std::string prefix = std::string("core.") + p;
      const auto s = slowest.regions.find(p);
      const auto v = volume.regions.find(p);
      if (s == slowest.regions.end() || v == volume.regions.end()) continue;
      layers.set(prefix + ".modeled_us", s->second.modeled_seconds() * 1e6);
      layers.set(prefix + ".bytes", static_cast<double>(v->second.bytes));
      layers.set(prefix + ".messages",
                 static_cast<double>(v->second.messages));
    }
    layers.set("dist.bytes", static_cast<double>(volume.total.bytes));
    layers.set("dist.messages", static_cast<double>(volume.total.messages));
  }

  const bool sparse_;
  const double scale_;
  graph::EdgeList graph_;
  std::vector<VertexId> truth_;
  double modeled_seconds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cc(bool sparse, bool smoke) {
  return std::make_unique<CcWorkload>(sparse, smoke);
}

}  // namespace lacc_bench
