// bench_stream — incremental vs from-scratch cost per streaming epoch.
//
// The streaming extension's core claim: when a batch touches little of the
// graph, warm-starting from the previous epoch's labels and iterating only
// the induced active set beats recomputing connected components from
// scratch.  This bench quantifies that and finds the crossover.
//
// Setup: warm-load half of a path-forest graph (so nearly every streamed
// edge still merges components — the worst case for the filter, the
// honest case for the incremental kernels), then stream the rest in
// batches of increasing size and compare the mean modeled seconds per
// epoch of two arms:
//
//   incremental   a StreamEngine on default StreamOptions
//   from-scratch  core::lacc_dist on the accumulated graph after each batch
//
// The crossover batch size is where recomputing becomes cheaper than the
// incremental epoch.
#include "bench_common.hpp"

#include <filesystem>

#include "graph/generators.hpp"
#include "stream/engine.hpp"
#include "support/timer.hpp"

namespace lacc::bench {
namespace {

constexpr int kRanks = 4;
constexpr int kEpochsPerSize = 5;

struct ArmResult {
  double inc_epoch_modeled = 0;      ///< mean modeled seconds per epoch
  double scratch_epoch_modeled = 0;  ///< mean lacc_dist modeled seconds
  std::uint64_t inc_rebuilds = 0;    ///< engine epochs that took the rebuild
};

/// Stream `kEpochsPerSize` batches of `batch_edges` edges (starting at
/// `warm` edges already loaded) through one engine, and after each batch
/// run lacc_dist from scratch on the accumulated graph; average both arms'
/// per-epoch modeled cost.
ArmResult run_arms(const graph::EdgeList& full, std::size_t warm,
                   std::size_t batch_edges) {
  stream::StreamEngine engine(full.n, kRanks, sim::MachineModel::edison());

  graph::EdgeList accumulated(full.n);
  auto feed = [&](std::size_t lo, std::size_t hi) {
    graph::EdgeList slice(full.n);
    slice.edges.assign(full.edges.begin() + static_cast<std::ptrdiff_t>(lo),
                       full.edges.begin() + static_cast<std::ptrdiff_t>(hi));
    accumulated.edges.insert(accumulated.edges.end(), slice.edges.begin(),
                             slice.edges.end());
    engine.ingest(slice);
    return engine.advance_epoch();
  };

  feed(0, warm);  // warm epoch, outside both means

  ArmResult result;
  int epochs = 0;
  std::size_t at = warm;
  for (int e = 0; e < kEpochsPerSize && at < full.edges.size(); ++e) {
    const std::size_t hi = std::min(at + batch_edges, full.edges.size());
    const auto st = feed(at, hi);
    result.inc_epoch_modeled += st.modeled_seconds();
    result.inc_rebuilds += st.full_rebuild ? 1 : 0;
    const auto scratch =
        core::lacc_dist(accumulated, kRanks, sim::MachineModel::edison());
    check_against_truth(accumulated, scratch.cc.parent);
    result.scratch_epoch_modeled += scratch.modeled_seconds;
    ++epochs;
    at = hi;
  }
  if (epochs > 0) {
    result.inc_epoch_modeled /= epochs;
    result.scratch_epoch_modeled /= epochs;
  }

  check_against_truth(accumulated, engine.labels());
  return result;
}

// --- durability cost -------------------------------------------------------

struct DurableArm {
  double wall_seconds = 0;   ///< real (not modeled) time for the whole stream
  std::uint64_t fsyncs = 0;
  std::uint64_t wal_bytes = 0;
};

/// Stream the full edge list in fixed-size batches through one engine and
/// measure *wall-clock* ingest+advance time.  Modeled seconds are
/// bit-identical across these arms by construction (durability charges no
/// modeled time); the wall-clock delta IS the durability tax.
DurableArm run_durable_arm(const graph::EdgeList& full, std::size_t batch,
                           const std::string& dir,
                           stream::durable::FsyncPolicy policy) {
  stream::StreamOptions options;
  if (!dir.empty()) {
    options.durable.dir = dir;
    options.durable.fsync = policy;
  }
  stream::StreamEngine engine(full.n, kRanks, sim::MachineModel::edison(),
                              options);

  Timer timer;
  for (std::size_t at = 0; at < full.edges.size(); at += batch) {
    const std::size_t hi = std::min(at + batch, full.edges.size());
    graph::EdgeList slice(full.n);
    slice.edges.assign(full.edges.begin() + static_cast<std::ptrdiff_t>(at),
                       full.edges.begin() + static_cast<std::ptrdiff_t>(hi));
    engine.ingest(slice);
    engine.advance_epoch();
  }

  DurableArm arm;
  arm.wall_seconds = timer.seconds();
  const auto stats = engine.durability_stats();
  arm.fsyncs = stats.io.fsyncs;
  arm.wal_bytes = stats.io.wal_bytes;
  check_against_truth(full, engine.labels());
  return arm;
}

}  // namespace
}  // namespace lacc::bench

int main() {
  using namespace lacc;
  using namespace lacc::bench;

  print_banner("bench_stream — incremental vs from-scratch epochs",
               "streaming extension (Section IV-B sparsity argument taken "
               "to incremental updates)");
  Metrics metrics("bench_stream");

  const double scale = problem_scale();
  const auto n = static_cast<VertexId>(8000 * scale);
  const auto full =
      graph::path_forest(std::max<VertexId>(n, 500), 40, /*seed=*/11);
  const std::size_t warm = full.edges.size() / 2;
  std::cout << "Workload: path forest, " << fmt_count(full.n)
            << " vertices, " << fmt_count(full.edges.size())
            << " edges (warm-loading " << fmt_count(warm) << ", streaming "
            << fmt_count(full.edges.size() - warm) << ") on " << kRanks
            << " ranks\n\n";

  TextTable table({"batch", "inc/epoch", "scratch/epoch", "speedup",
                   "winner"});
  std::size_t crossover = 0;
  std::size_t prev = 0;
  for (std::size_t batch : {std::size_t{8}, std::size_t{32},
                            std::size_t{128}, std::size_t{512},
                            std::size_t{2048}, std::size_t{8192}}) {
    // Clamp the last step to "everything remaining in one epoch" — the
    // regime where recomputing from scratch must win.
    batch = std::min(batch, full.edges.size() - warm);
    if (batch == prev) break;
    prev = batch;
    const auto arms = run_arms(full, warm, batch);
    const double speedup =
        arms.inc_epoch_modeled > 0
            ? arms.scratch_epoch_modeled / arms.inc_epoch_modeled
            : 0;
    const bool inc_wins = arms.inc_epoch_modeled < arms.scratch_epoch_modeled;
    if (!inc_wins && crossover == 0) crossover = batch;
    table.add_row({fmt_count(batch), fmt_seconds(arms.inc_epoch_modeled),
                   fmt_seconds(arms.scratch_epoch_modeled),
                   fmt_ratio(speedup),
                   inc_wins ? "incremental" : "from-scratch"});
    metrics.add_simple(
        "batch_" + std::to_string(batch),
        {{"batch_edges", static_cast<double>(batch)},
         {"inc_epoch_modeled", arms.inc_epoch_modeled},
         {"scratch_epoch_modeled", arms.scratch_epoch_modeled},
         {"inc_rebuilds", static_cast<double>(arms.inc_rebuilds)},
         {"speedup", speedup}});
  }
  table.print(std::cout);

  if (crossover == 0)
    std::cout << "\nCrossover: none up to the largest tested batch — "
                 "incremental wins throughout\n";
  else
    std::cout << "\nCrossover batch size: " << fmt_count(crossover)
              << " edges (from-scratch becomes cheaper)\n";
  metrics.add_simple("crossover",
                     {{"batch_edges", static_cast<double>(crossover)}});

  // Durability tax: same stream, same batches, three persistence modes.
  // Modeled seconds are identical by design; wall-clock ingest throughput
  // is what the WAL fsync policy actually costs.
  std::cout << "\nDurability cost (wall-clock, same modeled results):\n";
  const std::size_t durable_batch = 256;
  const auto tmp = std::filesystem::temp_directory_path() / "lacc-bench-stream";
  struct ModeSpec {
    const char* name;
    bool durable;
    stream::durable::FsyncPolicy policy;
  };
  const ModeSpec modes[] = {
      {"memory", false, stream::durable::FsyncPolicy::kPerEpoch},
      {"fsync-epoch", true, stream::durable::FsyncPolicy::kPerEpoch},
      {"fsync-batch", true, stream::durable::FsyncPolicy::kPerBatch},
  };
  TextTable dtable({"mode", "wall", "edges/s", "fsyncs", "vs memory"});
  double memory_wall = 0;
  for (const ModeSpec& mode : modes) {
    const auto dir = tmp / mode.name;
    std::filesystem::remove_all(dir);
    const DurableArm arm = run_durable_arm(
        full, durable_batch, mode.durable ? dir.string() : std::string(),
        mode.policy);
    std::filesystem::remove_all(dir);
    if (!mode.durable) memory_wall = arm.wall_seconds;
    const double slowdown =
        memory_wall > 0 ? arm.wall_seconds / memory_wall : 1.0;
    const double rate = arm.wall_seconds > 0
                            ? static_cast<double>(full.edges.size()) /
                                  arm.wall_seconds
                            : 0;
    dtable.add_row({mode.name, fmt_seconds(arm.wall_seconds),
                    fmt_count(static_cast<std::uint64_t>(rate)),
                    fmt_count(arm.fsyncs),
                    mode.durable ? fmt_ratio(slowdown) : "1.00x"});
    metrics.add_simple(std::string("durability_") + mode.name,
                       {{"wall_seconds", arm.wall_seconds},
                        {"edges_per_sec", rate},
                        {"fsyncs", static_cast<double>(arm.fsyncs)},
                        {"wal_bytes", static_cast<double>(arm.wal_bytes)},
                        {"slowdown_vs_memory", slowdown}});
  }
  dtable.print(std::cout);
  return 0;
}
