// The benchmark's metric catalogue and the per-run report that fills it.
//
// An untraced run reports the end-to-end table, a traced run the per-layer
// table, and both the wall-clock table.  BENCHMARK.json lists the same
// names and units, with the wall-clock table among the per-layer metrics;
// run.py refuses a run that lacks one.
//
// End-to-end metrics are defined for every workload through its one
// operation ("op"): a lacc_dist call (cc-*), one ingest+advance epoch of the
// durable arm (stream-durable), one write from its due time until a
// ticketed read sees it (serve-rw, shard-fanout), and one round of BFS +
// PageRank + triangle count (kernel-query).  A per-layer metric whose layer
// a workload never calls reads 0 there.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lacc_bench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          // median of the repeated set-ups of one run
    {"modeled_ms_p50", "ms"},  // Edison-model time of the work behind an op
    {"peak_rss_mb", "MB"},     // VmHWM of the workload process
};

/// The op's wall-clock cost, from an untraced phase.  On a shared host
/// these move with the host's load by more than any usable bound (see
/// README.md), so BENCHMARK.json lists them as per-layer metrics.
inline constexpr MetricDef kWallClock[] = {
    {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},
    {"op_ms_p99w", "ms"},     // median over 1 s windows of each window's p99
    {"cpu_ms_per_op", "ms"},  // process CPU time of the timed phase per op
};

inline constexpr MetricDef kPerLayer[] = {
    // Every workload.
    {"graph.gen_s", "s"},
    {"sim.session_us_p50", "us"},  // empty run_spmd at 4 ranks
    {"trace.overhead_pct", "%"},   // traced vs untraced op_ms_p50
    {"trace.spans", "count"},
    {"trace.bench.self_share", "share"},
    {"trace.core.self_share", "share"},
    {"trace.stream.self_share", "share"},
    {"trace.durable.self_share", "share"},
    {"trace.serve.self_share", "share"},
    {"trace.shard.self_share", "share"},
    {"trace.kernel.self_share", "share"},
    // cc-*: one 64-rank run on the Edison model (modeled, exact) ...
    {"core.modeled_ms", "ms"},
    {"core.iterations", "count"},
    {"core.cond-hook.modeled_us", "us"},
    {"core.cond-hook.bytes", "B"},
    {"core.cond-hook.messages", "count"},
    {"core.uncond-hook.modeled_us", "us"},
    {"core.uncond-hook.bytes", "B"},
    {"core.uncond-hook.messages", "count"},
    {"core.shortcut.modeled_us", "us"},
    {"core.shortcut.bytes", "B"},
    {"core.shortcut.messages", "count"},
    {"core.starcheck.modeled_us", "us"},
    {"core.starcheck.bytes", "B"},
    {"core.starcheck.messages", "count"},
    {"dist.bytes", "B"},
    {"dist.messages", "count"},
    // ... and the timed 4-rank calls (median per call, slowest rank).
    {"core.cond-hook.wall_ms", "ms"},
    {"core.uncond-hook.wall_ms", "ms"},
    {"core.shortcut.wall_ms", "ms"},
    {"core.starcheck.wall_ms", "ms"},
    // stream-durable (durable arm); serve-rw and shard-fanout fill the
    // epoch-history ones from the engines' histories.
    {"stream.ingest_ms_p50", "ms"},
    {"stream.advance_ms_p50", "ms"},
    {"stream.advance_ms_p99", "ms"},
    {"stream.rebuild_share", "share"},
    {"stream.cross_share", "share"},
    {"stream.relabeled_per_epoch", "count"},
    {"stream.compactions", "count"},
    {"stream.modeled_us_per_epoch", "us"},
    {"stream.wall_over_modeled", "x"},
    // stream-durable.
    {"durable.overhead_ms", "ms"},  // durable-arm minus memory-arm wall
    {"durable.fsyncs", "count"},
    {"durable.wal_bytes", "B"},
    {"durable.run_file_bytes", "B"},
    {"durable.level_compactions", "count"},
    {"durable.recovery_ms", "ms"},
    // serve-rw and shard-fanout, as the benchmark's client threads see them.
    {"client.insert_us_p50", "us"},
    {"client.insert_us_p99", "us"},
    {"client.read_us_p50", "us"},
    {"client.read_us_p99", "us"},
    {"client.pinned_miss_share", "share"},
    {"client.gen_late_ms_max", "ms"},
    // serve-rw (shard-fanout: the slowest shard).
    {"serve.batch_edges_mean", "count"},
    {"serve.epochs_per_s", "1/s"},
    {"serve.queue_depth_max", "count"},  // sampled every 10 ms
    {"serve.pair_cache_hit_share", "share"},
    // shard-fanout.
    {"shard.local_visible_ms_p50", "ms"},
    {"shard.reconcile_lag_ms_p50", "ms"},
    {"shard.reconcile_rounds", "count"},
    {"shard.reconcile_useful_share", "share"},
    {"shard.reconcile_modeled_ms", "ms"},
    {"shard.boundary_words", "count"},
    {"shard.boundary_raw", "count"},
    {"shard.global_epochs_per_s", "1/s"},
    {"shard.ticket_waits", "count"},
    // kernel-query: counts from the first round, times as medians.
    {"kernel.bfs.modeled_us", "us"},
    {"kernel.bfs.rounds", "count"},
    {"kernel.bfs.words", "count"},
    {"kernel.bfs.serve_overhead_us", "us"},
    {"kernel.bfs.wall_ms_p50", "ms"},
    {"kernel.pagerank.modeled_us", "us"},
    {"kernel.pagerank.rounds", "count"},
    {"kernel.pagerank.words", "count"},
    {"kernel.pagerank.serve_overhead_us", "us"},
    {"kernel.pagerank.wall_ms_p50", "ms"},
    {"kernel.tc.modeled_us", "us"},
    {"kernel.tc.rounds", "count"},
    {"kernel.tc.words", "count"},
    {"kernel.tc.serve_overhead_us", "us"},
    {"kernel.tc.wall_ms_p50", "ms"},
};

/// Values for metric tables, all starting at 0.  set() on a name the
/// tables do not hold throws, so a typo cannot publish a silent 0.
class Report {
 public:
  Report(std::span<const MetricDef> first, std::span<const MetricDef> second);

  /// Throws on an unknown name or a non-finite value.
  void set(std::string_view name, double value);

  const std::vector<std::pair<MetricDef, double>>& values() const {
    return values_;
  }

 private:
  std::vector<std::pair<MetricDef, double>> values_;
};

}  // namespace lacc_bench
