// The interface every workload implements, plus the inputs they share.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/edge_list.hpp"
#include "metrics.hpp"
#include "sim/machine.hpp"
#include "trace.hpp"

namespace lacc_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// A wrong answer from the system under test.  The run prints no metrics.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What one timed phase measured.
struct Phase {
  std::vector<double> op_ms;    ///< latency of each op
  std::vector<double> op_at_s;  ///< when each op was due, from phase start
  /// Modeled time of each unit of work behind the ops: a call, an epoch,
  /// or a round of kernels.
  std::vector<double> modeled_ms;
  double cpu_seconds = 0;       ///< process CPU time of the phase
  std::uint64_t attempted = 0;  ///< every request issued, reads included
  std::uint64_t failed = 0;     ///< errors, shed writes, refused requests

  void add_op(double ms, double at_s) {
    op_ms.push_back(ms);
    op_at_s.push_back(at_s);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the inputs from `seed` and build the system under test,
  /// replacing any earlier state.  Sets gen_seconds.
  virtual void setup(std::uint64_t seed) = 0;

  /// Run the timed phase for about `seconds`, checking every output
  /// (throws Mismatch).  With a tracer, record spans and fill `layers`.
  virtual Phase run(double seconds, Tracer* tracer, Report* layers) = 0;

  double gen_seconds = 0;  ///< graph generation share of the last setup
};

/// Workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// Null for an unknown name.  `smoke` shrinks every input to run in about
/// a second with the same correctness checks.
std::unique_ptr<Workload> make_workload(std::string_view name, bool smoke);

std::unique_ptr<Workload> make_cc(bool sparse, bool smoke);
std::unique_ptr<Workload> make_stream(bool smoke);
std::unique_ptr<Workload> make_serve(bool sharded, bool smoke);
std::unique_ptr<Workload> make_kernel(bool smoke);

// --- shared inputs --------------------------------------------------------

/// The cost model every workload runs against.
inline const lacc::sim::MachineModel& machine() {
  return lacc::sim::MachineModel::edison();
}

/// Virtual ranks of every wall-clock measurement: one per core of a 4-core
/// host.  Wider runs report modeled time and counts only.
inline constexpr int kRanks = 4;

/// The eukarya row of graph::make_test_problems(scale, seed), generated
/// alone: protein-similarity clusters, most components small.
lacc::graph::EdgeList eukarya(double scale, std::uint64_t seed);

/// The M3 row of graph::make_test_problems(scale, seed): a forest of short
/// paths, average degree 2.
lacc::graph::EdgeList m3(double scale, std::uint64_t seed);

/// The edges in a seeded random order (the arrival order of a stream).
lacc::graph::EdgeList shuffled(lacc::graph::EdgeList el, std::uint64_t seed);

/// Canonical labels (component minimum vertex id) by union-find.
std::vector<lacc::VertexId> truth_labels(const lacc::graph::EdgeList& el);

/// Process CPU time, user plus system, all threads.
double cpu_seconds();

}  // namespace lacc_bench
