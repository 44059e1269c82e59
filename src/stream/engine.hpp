// lacc::stream — incremental connected components over batched edge
// updates, with an epoch-versioned query API.
//
// The paper computes CC once over a static graph; its sparsity optimization
// (Section IV-B: process only non-converged vertices) is really an
// incremental-computation argument.  StreamEngine takes it to its logical
// end: between epochs the graph only grows by edge batches, so instead of
// recomputing from scratch it
//
//   1. filters each batch down to *cross-component* edges with one batched
//      distributed label lookup (almost all edges of a mature graph land
//      inside an existing component and cost nothing further);
//   2. runs hook/shortcut iterations — the same Shiloach–Vishkin machinery
//      as LACC, warm-started from the previous epoch's labels — on just the
//      induced active set of component roots; every round hooks and then
//      pointer-jumps the hooked roots, so rounds are O(log n);
//   3. recomputes with lacc_dist instead when the batch carries more than
//      2·n cross pairs (a bulk load onto a young graph), the one regime
//      where one static solve beats the hook rounds.
//
// New edges live in the dist layer's LSM-style DeltaStore until a
// compaction threshold folds them into the DCSC base (DistCsc::merge_delta)
// — the rebuild path always compacts first so lacc_dist_body sees the
// whole accumulated graph.
//
// Labels are *canonical*: label[v] is the minimum vertex id of v's
// component (normalize_labels form), at every epoch.  This is the
// determinism contract — an engine label vector is bit-identical to
// normalize_labels(lacc_dist(accumulated graph).parent) regardless of rank
// count, option flags, or the batch schedule that produced the epoch (see
// docs/STREAMING.md for the invariant argument).
//
// Modeled-time accounting follows lacc_dist's convention: per-epoch modeled
// seconds cover ingestion routing and the epoch's collectives, but not the
// final host-side label gather (result extraction).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/options.hpp"
#include "graph/edge_list.hpp"
#include "kernel/view.hpp"
#include "sim/machine.hpp"
#include "sim/runtime.hpp"
#include "stream/durable/options.hpp"
#include "support/partition.hpp"
#include "support/types.hpp"

namespace lacc::stream {

namespace durable {
class VersionSet;
}

/// Streaming policy knobs on top of the static algorithm's LaccOptions.
struct StreamOptions {
  /// Options for the rebuild path and the comm tuning (hotspot broadcast,
  /// hypercube all-to-all, ...) shared by the incremental kernels;
  /// `max_iterations` also bounds the incremental hook rounds.
  core::LaccOptions lacc;

  /// Compact delta runs into the DCSC base once their global entry count
  /// exceeds this fraction of the base's nnz — the LSM write-amplification
  /// trade-off.  Rebuild epochs always compact first.
  double compaction_factor = 0.25;

  /// Durability (disabled unless durable.dir is set): per-rank WAL on
  /// ingest, run files at compaction, manifest recovery at construction.
  /// Memory-only behavior — labels, per-epoch stats, modeled seconds — is
  /// bit-identical whether or not this is enabled; durability only adds
  /// host-side disk I/O outside the cost model.
  durable::Options durable;

  /// Sharded serving (lacc::shard): when `shards.shards > 1` this engine is
  /// one shard of a partitioned vertex space.  Ingested edges whose
  /// endpoints are not both owned by `shard` never enter the graph; they
  /// are parked and extracted at the next epoch commit (see
  /// take_extracted_boundary) so the router can feed them to the cross-shard
  /// reconcile.  The engine's canonical-label contract then holds over the
  /// *owned-owned* edge prefix.
  ShardPartition shards;
  int shard = 0;  ///< this engine's shard id in [0, shards.shards)

  bool shard_filter_enabled() const { return shards.shards > 1; }
};

/// What one advance_epoch() did (the streaming analogue of
/// core::IterationRecord; drives the CLI table and the per-epoch metrics).
struct EpochStats {
  std::uint64_t epoch = 0;        ///< 1-based; epoch 0 is the empty graph
  EdgeId batch_edges = 0;         ///< canonical edges ingested since last epoch
  EdgeId delta_nnz = 0;           ///< global delta entries resident after epoch
  std::uint64_t cross_edges = 0;  ///< batch edges joining distinct components
  std::uint64_t merges = 0;          ///< components merged away this epoch
  std::uint64_t components = 0;      ///< components after the epoch
  std::uint64_t relabeled_vertices = 0;  ///< labels that changed
  std::uint64_t boundary_extracted = 0;  ///< cross-shard edges parked this epoch
  bool full_rebuild = false;  ///< cross_edges > 2·n: recomputed with lacc_dist
  bool compacted = false;     ///< delta runs merged into the DCSC base
  int iterations = 0;  ///< hook/shortcut rounds (or lacc_dist iterations)
  double ingest_modeled_seconds = 0;   ///< routing cost of this epoch's batches
  double advance_modeled_seconds = 0;  ///< epoch collectives (critical path)

  double modeled_seconds() const {
    return ingest_modeled_seconds + advance_modeled_seconds;
  }
};

/// Incremental distributed connected components.  One instance owns the
/// persistent per-rank state (DCSC base + delta runs + label and
/// component-size vectors); each public operation spawns one SPMD session
/// over the same virtual ranks, so the modeled costs compose exactly like
/// repeated lacc_dist runs on one allocation.
///
/// Not thread-safe; collective state is owned by the engine, queries are
/// host-side reads of the epoch snapshot.
class StreamEngine {
 public:
  /// `nranks` must be a positive perfect square (the grid constraint).
  StreamEngine(VertexId n, int nranks, const sim::MachineModel& machine,
               StreamOptions options = {});
  ~StreamEngine();
  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  VertexId num_vertices() const { return n_; }
  int ranks() const { return nranks_; }
  const StreamOptions& options() const { return options_; }

  /// Epochs advanced so far; epoch 0 is the initial empty graph.
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t num_components() const { return components_; }

  /// Queue a batch of edges (collective ingestion into the delta store).
  /// The batch is canonicalized first; labels do not change until the next
  /// advance_epoch().  Returns what canonicalization dropped.
  graph::CanonicalizeStats ingest(graph::EdgeList batch);

  /// Close the current batch window: fold every pending edge into the
  /// labels (incrementally, or by a full recompute for a batch of more than
  /// 2·n cross pairs) and start a new epoch.  Valid with no pending edges
  /// (an empty epoch).
  EpochStats advance_epoch();

  /// Boundary-edge extraction at epoch commit (sharded engines only):
  /// cross-shard edges ingested since the previous epoch, moved out.  The
  /// epoch that committed them is the engine's current epoch(); a caller
  /// that drains after every advance_epoch sees each boundary edge exactly
  /// once.  Always empty when the shard filter is off.
  std::vector<graph::Edge> take_extracted_boundary();

  /// Component label of v at the current epoch (canonical min-vertex-id).
  VertexId component_of(VertexId v) const;

  /// Batched lookup at the current epoch.
  std::vector<VertexId> query(std::span<const VertexId> vertices) const;

  /// Time-travel lookup: labels as of the end of epoch `at` (0 = initial
  /// empty graph, where every vertex is its own component).
  std::vector<VertexId> query_at(std::uint64_t at,
                                 std::span<const VertexId> vertices) const;

  /// Full canonical label vector at the current epoch.
  const std::vector<VertexId>& labels() const { return current_labels_; }

  /// Freeze an immutable kernel::GraphView of the graph at the current
  /// epoch: the DCSC base plus every *processed* delta run (edges already
  /// folded into the labels but not yet compacted; pending runs belong to
  /// the next epoch and are excluded).  When no processed runs are resident
  /// the view shares the base blocks without copying — the next compaction
  /// copies-on-write if the view is still alive — otherwise one SPMD merge
  /// session pays for a merged copy per rank and its modeled cost is
  /// recorded on the view.  Like every collective operation here, not
  /// thread-safe against concurrent ingest/advance; serve::Server calls it
  /// from its engine thread before publishing the epoch's snapshot.
  kernel::GraphView freeze_view();

  /// Per-epoch records, oldest first (history()[e - 1] is epoch e).
  const std::vector<EpochStats>& history() const { return history_; }

  /// Sum of per-epoch modeled seconds (ingest + advance) so far.
  double total_modeled_seconds() const { return total_modeled_; }

  /// SPMD stats of the most recent advance_epoch (for metrics/trace
  /// export); empty before the first advance.
  const sim::SpmdResult& last_epoch_spmd() const { return last_spmd_; }

  /// Whether this engine persists to a data directory.
  bool durable() const { return vs_ != nullptr; }
  /// Whether construction recovered published state from a manifest (false
  /// for fresh directories).
  bool recovered() const { return recovered_; }
  /// The epoch recovery restored (only meaningful when recovered()); epochs
  /// before it have no version history, so query_at() on them throws.
  std::uint64_t recovered_epoch() const { return recovered_epoch_; }
  /// Durable I/O counters summed over ranks + host, plus recovery info.
  /// All zeros when not durable().
  durable::DurabilityStats durability_stats() const;

 private:
  struct RankSlot;  // per-rank persistent distributed state

  VertexId n_;
  int nranks_;
  sim::MachineModel machine_;
  StreamOptions options_;

  std::vector<std::unique_ptr<RankSlot>> slots_;

  std::uint64_t epoch_ = 0;
  std::uint64_t components_ = 0;
  std::vector<VertexId> current_labels_;
  /// Sparse version chains for query_at: label changes as (epoch, label),
  /// ascending; a vertex with no chain has kept its initial label v.
  std::unordered_map<VertexId, std::vector<std::pair<std::uint64_t, VertexId>>>
      versions_;
  std::vector<EpochStats> history_;

  EdgeId pending_batch_edges_ = 0;
  /// Cross-shard edges parked by the shard filter: accumulated during
  /// ingest, moved to extracted_boundary_ when their epoch commits.
  std::vector<graph::Edge> pending_boundary_;
  std::vector<graph::Edge> extracted_boundary_;
  double pending_ingest_modeled_ = 0;
  double total_modeled_ = 0;
  sim::SpmdResult last_spmd_;

  std::unique_ptr<durable::VersionSet> vs_;  ///< null when memory-only
  bool recovered_ = false;
  std::uint64_t recovered_epoch_ = 0;
};

}  // namespace lacc::stream
