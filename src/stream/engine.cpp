#include "stream/engine.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/lacc_dist.hpp"
#include "dist/dist_mat.hpp"
#include "dist/dist_vec.hpp"
#include "dist/grid.hpp"
#include "dist/ops.hpp"
#include "stream/delta_store.hpp"
#include "stream/durable/version_set.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace lacc::stream {

using dist::CommTuning;
using dist::CscCoord;
using dist::DistCsc;
using dist::DistVec;
using dist::ProcGrid;
using dist::Tuple;

namespace {

/// Same option -> tuning mapping as lacc_dist, so the incremental kernels
/// share the static path's communication behavior (hotspot broadcast,
/// hypercube all-to-all).
CommTuning tuning_from(const core::LaccOptions& options) {
  CommTuning tuning;
  tuning.alltoall = options.hypercube_alltoall
                        ? sim::AllToAllAlgo::kSparseHypercube
                        : sim::AllToAllAlgo::kPairwise;
  tuning.hotspot_broadcast = options.hotspot_broadcast;
  tuning.hotspot_threshold = options.hotspot_threshold;
  tuning.force_dense = !options.use_sparse_vectors;
  return tuning;
}

constexpr auto kSum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

/// An epoch whose batch carries more than this many cross pairs per vertex
/// is folded in by a full lacc_dist_body recompute instead of hook rounds.
/// Only bulk loads onto a young graph get there.  For a first batch at 4
/// ranks the two paths tie in wall time between 2·n and 2.5·n cross pairs;
/// the hook rounds win below that and the recompute above it (EXPERIMENTS.md
/// has the sweep).  cross_total is already a global reduction, so the
/// choice costs no collective.
constexpr std::uint64_t kRebuildCrossPairsPerVertex = 2;

/// One pointer jump's requests: every old root g (a comp_size key) that has
/// hooked (labels[g] != g) goes to `roots`, its parent labels[g] to `req`.
void request_jumps(const DistVec<std::uint64_t>& comp_size,
                   const DistVec<VertexId>& labels,
                   std::vector<VertexId>& roots, std::vector<VertexId>& req) {
  comp_size.for_each_stored([&](VertexId g, std::uint64_t) {
    const VertexId l = labels.at(g);
    if (l != g) {
      roots.push_back(g);
      req.push_back(l);
    }
  });
}

/// Recompute labels + comp_size from the base via the static algorithm and
/// re-canonicalize.  Shared by the rebuild path and recovery — the
/// canonical-label contract makes the result independent of how the base
/// was accumulated, which is exactly why recovery-by-recompute republishes
/// bit-identical labels.
int rebuild_labels(ProcGrid& grid, sim::Comm& world,
                   const core::LaccOptions& options, VertexId n, DistCsc& base,
                   DistVec<VertexId>& labels,
                   DistVec<std::uint64_t>& comp_size) {
  core::CcResult cc;
  core::lacc_dist_body(grid, base, options, cc);
  const auto canon = core::normalize_labels(cc.parent);
  for (const VertexId g : labels.owned()) labels.set(g, canon[g]);
  comp_size.clear();
  for (VertexId v = 0; v < n; ++v) {
    const VertexId r = canon[v];
    if (comp_size.owns(r)) comp_size.set(r, comp_size.get_or(r, 0) + 1);
  }
  world.charge_compute(static_cast<double>(n) +
                       static_cast<double>(labels.local_size()));
  return cc.iterations;
}

}  // namespace

/// Persistent distributed state of one virtual rank, reused across SPMD
/// sessions (all members are plain data; the conformance layer's block
/// fences verify only the owning rank ever touches them).
struct StreamEngine::RankSlot {
  /// Compacted DCSC adjacency.  Held by shared_ptr so freeze_view() can
  /// hand out zero-copy immutable views: a frozen block is never mutated —
  /// compaction copies-on-write when a view still references the base
  /// (use_count > 1) and swings the pointer to the fresh copy instead.
  std::shared_ptr<DistCsc> base;
  std::optional<DeltaStore> delta;      ///< uncompacted edge runs
  std::optional<DistVec<VertexId>> labels;  ///< canonical min-id labels, dense
  /// Component size stored exactly at current roots.  Its keys are the
  /// root set the hook rounds' pointer jump, the shortcut and the relabel
  /// iterate, so none of them scans all n labels.
  std::optional<DistVec<std::uint64_t>> comp_size;
  /// Durable WAL + run files + block cache (null when memory-only).
  std::unique_ptr<durable::RankStorage> store;
};

StreamEngine::StreamEngine(VertexId n, int nranks,
                           const sim::MachineModel& machine,
                           StreamOptions options)
    : n_(n), nranks_(nranks), machine_(machine), options_(std::move(options)) {
  int q = 0;
  while (q * q < nranks_) ++q;
  LACC_CHECK_MSG(nranks_ >= 1 && q * q == nranks_,
                 "stream engine rank count " << nranks_
                                             << " is not a perfect square");
  slots_.resize(static_cast<std::size_t>(nranks_));
  for (auto& slot : slots_) slot = std::make_unique<RankSlot>();

  // Durable setup happens host-side before the SPMD session: open/init the
  // data directory, and if a manifest exists, pre-read every rank's WAL and
  // plan the recovery storage rotation (uniform inputs for the rank
  // threads, like every other collective decision).
  if (options_.durable.enabled())
    vs_ = std::make_unique<durable::VersionSet>(options_.durable, n_, nranks_);
  const bool recover = vs_ != nullptr && vs_->recovering();
  durable::CompactionPlan rplan;
  durable::WalRecovery wals;
  if (recover) {
    wals = vs_->read_wals_for_recovery();
    rplan = vs_->plan_recovery();
  }
  const std::uint64_t wal_gen =
      vs_ == nullptr ? 0 : (recover ? rplan.wal_gen : vs_->manifest().wal_gen);

  Timer recovery_timer;
  std::vector<VertexId> flat_labels;
  std::uint64_t sh_replayed = 0, sh_pending_undirected = 0;

  const graph::EdgeList empty(n_);
  sim::run_spmd(nranks_, machine_, [&](sim::Comm& world) {
    ProcGrid grid(world);
    const int rank = world.rank();
    RankSlot& slot = *slots_[static_cast<std::size_t>(rank)];
    slot.base = std::make_shared<DistCsc>(grid, empty);
    slot.delta.emplace(grid, n_);
    slot.labels.emplace(grid, n_);
    slot.comp_size.emplace(grid, n_);
    for (const VertexId g : slot.labels->owned()) {
      slot.labels->set(g, g);
      slot.comp_size->set(g, 1);
    }
    if (vs_ != nullptr) {
      slot.store =
          std::make_unique<durable::RankStorage>(*vs_, rank, wal_gen);
      slot.delta->attach_storage(slot.store.get());
    }
    if (!recover) return;

    // --- Recovery.  The modeled time of this session is deliberately not
    // added to total_modeled_seconds(): the work was already paid for (and
    // recorded) by the run that originally published the epoch.
    sim::Region region(world, "durable-recover");
    const durable::Manifest& mf = vs_->manifest();

    // 1. Rebuild this rank's base block: live run files plus the WAL
    //    records the manifest watermark already folded into the labels.
    std::vector<CscCoord> coords;
    slot.store->read_live_runs(coords);
    std::vector<CscCoord> flush_coords;
    for (const auto& rec : wals.per_rank[static_cast<std::size_t>(rank)]) {
      if (rec.seq <= mf.wal_processed_seq)
        flush_coords.insert(flush_coords.end(), rec.coords.begin(),
                            rec.coords.end());
    }
    sort_unique_column_major(flush_coords, n_);
    // Always applied: even with nothing to flush, recovery rotates to a
    // fresh WAL generation (the old one may have a torn tail).
    slot.store->apply_plan(rplan, flush_coords, n_);
    coords.insert(coords.end(), flush_coords.begin(), flush_coords.end());
    sort_unique_column_major(coords, n_);
    slot.base->merge_delta(grid, coords);

    // 2. Labels from scratch over the recovered base; bit-identical to the
    //    pre-crash publication by the canonical-label contract.
    if (slot.base->global_nnz() != 0)
      rebuild_labels(grid, world, options_.lacc, n_, *slot.base, *slot.labels,
                     *slot.comp_size);

    // 3. Re-ingest pending WAL records — seqs past the watermark that every
    //    rank has intact — as pending runs, re-logged into the fresh
    //    generation so a second crash recovers them too.  Records past the
    //    replay limit were mid-flight at the crash and are dropped (their
    //    batch was never visible to any published epoch).
    std::uint64_t replayed = 0, pending_undirected = 0;
    for (auto& rec : wals.per_rank[static_cast<std::size_t>(rank)]) {
      if (rec.seq <= mf.wal_processed_seq || rec.seq > wals.replay_limit)
        continue;
      for (const CscCoord& c : rec.coords)
        if (c.row < c.col) ++pending_undirected;
      slot.store->wal().append(rec.seq, rec.coords);
      slot.delta->restore_run(std::move(rec.coords));
      ++replayed;
    }
    if (replayed > 0) slot.store->wal().sync_now("wal.append.fsync");
    slot.delta->set_next_seq(wals.replay_limit);

    const std::uint64_t replayed_total = world.allreduce(replayed, kSum);
    pending_undirected = world.allreduce(pending_undirected, kSum);
    auto flat = dist::to_global(grid, *slot.labels, kNoVertex);
    if (rank == 0) {
      flat_labels = std::move(flat);
      sh_replayed = replayed_total;
      sh_pending_undirected = pending_undirected;
    }
  });

  if (recover) {
    // Commit the rotation: fresh WAL generation (pending records re-logged
    // and fsynced above), processed records flushed into the levels.
    vs_->commit_recovery(rplan);
    epoch_ = vs_->manifest().epoch;
    recovered_ = true;
    recovered_epoch_ = epoch_;
    current_labels_ = std::move(flat_labels);
    components_ = 0;
    for (VertexId v = 0; v < n_; ++v) {
      if (current_labels_[v] == v) ++components_;
      // Seed the version chains at the recovered epoch so query_at() works
      // from recovered_epoch_ onward (earlier history is gone; query_at
      // refuses epochs before it).
      if (current_labels_[v] != v)
        versions_[v].emplace_back(epoch_, current_labels_[v]);
    }
    pending_batch_edges_ = sh_pending_undirected;
    vs_->set_recovery_info(epoch_, sh_replayed, recovery_timer.seconds());
  } else {
    components_ = n_;
    current_labels_.resize(n_);
    for (VertexId v = 0; v < n_; ++v) current_labels_[v] = v;
  }
}

StreamEngine::~StreamEngine() = default;

graph::CanonicalizeStats StreamEngine::ingest(graph::EdgeList batch) {
  LACC_CHECK_MSG(batch.n == n_, "batch vertex count " << batch.n
                                                      << " != engine's " << n_);
  const graph::CanonicalizeStats stats = graph::canonicalize_counted(batch);
  // Sharded engines park cross-shard edges instead of folding them in: the
  // graph (and therefore the canonical-label contract) covers owned-owned
  // edges only, and the parked edges surface at the next epoch commit via
  // take_extracted_boundary() for the router's cross-shard reconcile.
  if (options_.shard_filter_enabled()) {
    std::size_t keep = 0;
    for (const graph::Edge& e : batch.edges) {
      if (options_.shards.owner(e.u) == options_.shard &&
          options_.shards.owner(e.v) == options_.shard)
        batch.edges[keep++] = e;
      else
        pending_boundary_.push_back(e);
    }
    batch.edges.resize(keep);
  }
  pending_batch_edges_ += batch.edges.size();
  // Nothing survived canonicalization (empty batch, or all self-loops and
  // duplicates) or the shard filter: skip the SPMD session entirely — no
  // modeled time, no delta run, no WAL record.  Uniform by construction
  // (one host-side decision).
  if (batch.edges.empty()) return stats;

  const auto spmd = sim::run_spmd(nranks_, machine_, [&](sim::Comm& world) {
    ProcGrid grid(world);
    sim::Region region(world, "stream-ingest",
                       static_cast<std::int64_t>(epoch_ + 1));
    RankSlot& slot = *slots_[static_cast<std::size_t>(world.rank())];
    slot.delta->ingest(grid, batch);
  });
  pending_ingest_modeled_ += spmd.sim_seconds;
  return stats;
}

EpochStats StreamEngine::advance_epoch() {
  EpochStats st;
  st.epoch = ++epoch_;
  st.batch_edges = pending_batch_edges_;
  st.ingest_modeled_seconds = pending_ingest_modeled_;
  pending_batch_edges_ = 0;
  pending_ingest_modeled_ = 0;
  // Boundary-edge extraction at epoch commit: parked cross-shard edges
  // become visible to take_extracted_boundary() exactly when the epoch that
  // ingested them commits, so the router never reconciles an edge whose
  // ticket has not yet reached the shard's applied watermark.
  if (!pending_boundary_.empty()) {
    st.boundary_extracted = pending_boundary_.size();
    extracted_boundary_.insert(extracted_boundary_.end(),
                               pending_boundary_.begin(),
                               pending_boundary_.end());
    pending_boundary_.clear();
  }

  const CommTuning tuning = tuning_from(options_.lacc);
  const VertexId n = n_;

  // Durable epochs precompute the compaction's file-level plan host-side;
  // whether it applies is decided (uniformly) inside the session.
  durable::CompactionPlan plan;
  if (vs_ != nullptr) plan = vs_->plan_compaction();

  // Written by the matching rank / by rank 0 only; read after the join.
  std::vector<double> modeled(static_cast<std::size_t>(nranks_), 0.0);
  std::vector<VertexId> flat_labels;
  std::uint64_t sh_cross = 0, sh_last_seq = 0;
  EdgeId sh_delta_nnz = 0;
  bool sh_full = false, sh_compact = false, sh_applied = false;
  int sh_iterations = 0;

  auto spmd = sim::run_spmd(nranks_, machine_, [&](sim::Comm& world) {
    ProcGrid grid(world);
    RankSlot& slot = *slots_[static_cast<std::size_t>(world.rank())];
    DeltaStore& delta = *slot.delta;
    DistVec<VertexId>& labels = *slot.labels;
    DistVec<std::uint64_t>& comp_size = *slot.comp_size;
    sim::Region epoch_region(world, "epoch",
                             static_cast<std::int64_t>(st.epoch));

    // --- Filter pending edges down to cross-component edges: one batched
    // label lookup over both endpoints of every pending undirected edge.
    // `cross` holds (lo, hi) pairs of the endpoints' current labels.
    std::vector<std::pair<VertexId, VertexId>> cross;
    std::uint64_t cross_total = 0;
    {
      sim::Region region(world, "stream-filter");
      std::vector<VertexId> req;
      delta.for_each_pending([&](const CscCoord& e) {
        if (e.row < e.col) {  // each undirected edge exactly once globally
          req.push_back(e.row);
          req.push_back(e.col);
        }
      });
      const auto got =
          dist::gather_values(grid, labels, req, tuning, "stream_filter");
      for (std::size_t k = 0; k + 1 < got.size(); k += 2) {
        LACC_CHECK(got[k].second && got[k + 1].second);
        const VertexId lu = got[k].first, lv = got[k + 1].first;
        if (lu != lv)
          cross.emplace_back(std::min(lu, lv), std::max(lu, lv));
      }
      world.charge_compute(static_cast<double>(got.size()));
      cross_total = world.allreduce(
          static_cast<std::uint64_t>(cross.size()), kSum);
    }
    delta.mark_pending_processed();

    // --- Policy (uniform across ranks: all inputs are global reductions).
    const bool full = cross_total > kRebuildCrossPairsPerVertex * n;
    const EdgeId delta_nnz = delta.global_nnz(grid);
    const bool compact =
        full || static_cast<double>(delta_nnz) >
                    options_.compaction_factor *
                        static_cast<double>(std::max<EdgeId>(
                            slot.base->global_nnz(), 1));
    if (compact && delta_nnz != 0) {
      sim::Region region(world, "stream-compact");
      const std::vector<CscCoord> drained = delta.drain_merged(grid);
      // Durable: persist the drained delta as a new L0 run (plus any level
      // merges the plan cascades) before it disappears into the base, and
      // rotate the WAL — its records are all represented in run files now.
      // Disk I/O is host work, outside the modeled cost.
      if (slot.store != nullptr) slot.store->apply_plan(plan, drained, n);
      // Copy-on-write: a frozen GraphView may still hold this block, and
      // frozen blocks are immutable.  The check is per-rank and local (no
      // collective inside the branch), so it tolerates a view being
      // destroyed concurrently on another thread: any *live* view keeps
      // every rank's count above 1 for the whole epoch, and a dying view's
      // blocks are no longer read by anyone either way.
      if (slot.base.use_count() > 1)
        slot.base = std::make_shared<DistCsc>(*slot.base);
      slot.base->merge_delta(grid, drained);
    }

    int iterations = 0;
    if (full) {
      // --- Rebuild: the whole graph is in the base now; run the static
      // algorithm and re-canonicalize.  Every rank computes the same
      // normalized vector from the gathered parents.
      sim::Region region(world, "stream-rebuild");
      iterations = rebuild_labels(grid, world, options_.lacc, n, *slot.base,
                                  labels, comp_size);
    } else if (cross_total != 0) {
      // --- Incremental path: Shiloach–Vishkin on the contracted multigraph
      // whose vertices are current roots and whose edges are the cross
      // pairs.  Each round hooks larger roots onto smaller ones (the
      // hook-to-root guard keeps the forest flat-ish), then one gather moves
      // every remaining pair up a level and pointer-jumps every hooked old
      // root (labels[g] <- labels[labels[g]]); a pair retires when its
      // endpoints' labels agree.  Hooking then shortcutting halves the hook
      // chains each round, so rounds are O(log n) even on an id-sorted path.
      sim::Region region(world, "stream-inc");
      while (true) {
        ++iterations;
        LACC_CHECK_MSG(iterations <= options_.lacc.max_iterations,
                       "incremental hooking failed to converge");
        std::vector<Tuple<VertexId>> hooks;
        hooks.reserve(cross.size());
        for (const auto& [lo, hi] : cross) hooks.push_back({hi, lo});
        dist::scatter_assign_min(grid, labels, std::move(hooks), tuning,
                                 /*only_if_root=*/true);

        std::vector<VertexId> req;
        req.reserve(cross.size() * 2);
        for (const auto& [lo, hi] : cross) {
          req.push_back(lo);
          req.push_back(hi);
        }
        std::vector<VertexId> jumpers;
        request_jumps(comp_size, labels, jumpers, req);
        const auto got =
            dist::gather_values(grid, labels, req, tuning, "stream_inc");
        const std::size_t pairs = cross.size();
        for (std::size_t k = 0; k < jumpers.size(); ++k)
          labels.set(jumpers[k], got[2 * pairs + k].first);
        std::size_t keep = 0;
        for (std::size_t k = 0; k < pairs; ++k) {
          const VertexId lu = got[2 * k].first, lv = got[2 * k + 1].first;
          if (lu != lv) cross[keep++] = {std::min(lu, lv), std::max(lu, lv)};
        }
        cross.resize(keep);
        world.charge_compute(static_cast<double>(got.size()));
        if (!dist::global_any(grid, !cross.empty())) break;
      }

      // Shortcut: flatten the hook chains left on old roots, halving path
      // lengths per round until every old root points at its final root.
      {
        sim::Region shortcut(world, "stream-shortcut");
        while (true) {
          std::vector<VertexId> targets;
          std::vector<VertexId> req;
          request_jumps(comp_size, labels, targets, req);
          const auto got = dist::gather_values(grid, labels, req, tuning,
                                               "stream_shortcut");
          bool changed = false;
          for (std::size_t k = 0; k < targets.size(); ++k) {
            LACC_CHECK(got[k].second);
            if (got[k].first != labels.at(targets[k])) {
              labels.set(targets[k], got[k].first);
              changed = true;
            }
          }
          world.charge_compute(static_cast<double>(targets.size()) * 2);
          if (!dist::global_any(grid, changed)) break;
        }
      }

      // Relabel: broadcast the (old root -> final root, size) moves, then
      // each rank rewrites its owned labels with one local hash lookup per
      // element and transfers component sizes to the surviving roots.
      {
        sim::Region relabel(world, "stream-relabel");
        struct Moved {
          VertexId old_root;
          VertexId new_root;
          std::uint64_t size;
        };
        std::vector<Moved> moved;
        comp_size.for_each_stored([&](VertexId g, std::uint64_t s) {
          const VertexId l = labels.at(g);
          if (l != g) moved.push_back({g, l, s});
        });
        const std::vector<Moved> all_moved = world.allgatherv(moved);
        std::unordered_map<VertexId, VertexId> remap;
        remap.reserve(all_moved.size());
        for (const Moved& m : all_moved) remap.emplace(m.old_root, m.new_root);
        for (const VertexId g : labels.owned()) {
          const auto it = remap.find(labels.at(g));
          if (it != remap.end()) labels.set(g, it->second);
        }
        for (const Moved& m : all_moved) {
          if (comp_size.owns(m.new_root))
            comp_size.set(m.new_root,
                          comp_size.get_or(m.new_root, 0) + m.size);
          if (comp_size.owns(m.old_root)) comp_size.remove(m.old_root);
        }
        world.charge_compute(static_cast<double>(labels.local_size()) +
                             static_cast<double>(all_moved.size()) * 2);
      }
    }

    // Per-epoch fsync policy: make this epoch's WAL records durable before
    // the host commits the manifest below (no-op under per-batch policy or
    // when the WAL just rotated).  Host-side disk work, not modeled time.
    if (slot.store != nullptr) slot.store->wal().sync_epoch();

    // Modeled epoch time stops here; the label gather below is result
    // extraction (same convention as lacc_dist_body).
    modeled[static_cast<std::size_t>(world.rank())] = world.state().sim_time;
    auto flat = dist::to_global(grid, labels, kNoVertex);
    if (world.rank() == 0) {
      flat_labels = std::move(flat);
      sh_cross = cross_total;
      sh_delta_nnz = compact ? 0 : delta_nnz;
      sh_full = full;
      sh_compact = compact;
      sh_applied = compact && delta_nnz != 0;
      sh_last_seq = delta.last_seq();
      sh_iterations = iterations;
    }
  });

  // Manifest commit: the epoch becomes the durable truth *before* any
  // caller (serve::Server publishes its snapshot after this returns) can
  // observe it, so every visible epoch survives a crash.  A crash before
  // this line recovers to the previous manifest; after it, to this epoch.
  if (vs_ != nullptr) vs_->commit_epoch(st.epoch, sh_last_seq, sh_applied, plan);

  st.cross_edges = sh_cross;
  st.delta_nnz = sh_delta_nnz;
  st.full_rebuild = sh_full;
  st.compacted = sh_compact;
  st.iterations = sh_iterations;
  st.advance_modeled_seconds = *std::max_element(modeled.begin(), modeled.end());
  total_modeled_ += st.modeled_seconds();

  // Host-side epoch bookkeeping: diff against the previous snapshot to
  // extend the version chains, then count surviving roots.
  LACC_CHECK(flat_labels.size() == current_labels_.size());
  std::uint64_t components = 0;
  for (VertexId v = 0; v < n_; ++v) {
    if (flat_labels[v] == v) ++components;
    if (flat_labels[v] != current_labels_[v]) {
      versions_[v].emplace_back(st.epoch, flat_labels[v]);
      ++st.relabeled_vertices;
    }
  }
  st.merges = components_ - components;
  st.components = components;
  components_ = components;
  current_labels_ = std::move(flat_labels);
  last_spmd_ = std::move(spmd);
  history_.push_back(st);
  return st;
}

kernel::GraphView StreamEngine::freeze_view() {
  // Host-side peek at the processed-run watermark (fences are no-ops
  // outside run_spmd).  All-or-nothing across ranks: compaction and
  // mark_pending_processed are collective, so either every rank has
  // processed runs resident or none does.
  bool resident = false;
  for (const auto& slot : slots_)
    if (slot->delta->processed_nnz() != 0) resident = true;

  std::vector<std::shared_ptr<const dist::DistCsc>> blocks(slots_.size());
  double freeze_modeled = 0;
  if (!resident) {
    // Zero-copy: share the base blocks; the next compaction copies-on-write
    // while this view is alive.
    for (std::size_t r = 0; r < slots_.size(); ++r)
      blocks[r] = slots_[r]->base;
  } else {
    // Processed runs are reflected in the labels but not the DCSC arrays;
    // a faithful view of the published epoch folds them into a merged copy.
    const auto spmd = sim::run_spmd(nranks_, machine_, [&](sim::Comm& world) {
      ProcGrid grid(world);
      sim::Region region(world, "kernel-freeze",
                         static_cast<std::int64_t>(epoch_));
      RankSlot& slot = *slots_[static_cast<std::size_t>(world.rank())];
      auto merged = std::make_shared<DistCsc>(*slot.base);
      merged->merge_delta(grid, slot.delta->processed_coords());
      blocks[static_cast<std::size_t>(world.rank())] = std::move(merged);
    });
    freeze_modeled = spmd.sim_seconds;
  }
  return kernel::GraphView(n_, nranks_, machine_, epoch_, std::move(blocks),
                           freeze_modeled);
}

std::vector<graph::Edge> StreamEngine::take_extracted_boundary() {
  std::vector<graph::Edge> out;
  out.swap(extracted_boundary_);
  return out;
}

durable::DurabilityStats StreamEngine::durability_stats() const {
  durable::DurabilityStats s;
  if (vs_ == nullptr) return s;
  s = vs_->base_stats();
  // Rank counters are plain data read after the last session joined — the
  // same confinement rule as every other RankSlot member.
  for (const auto& slot : slots_)
    if (slot->store != nullptr) s.io.merge(slot->store->counters);
  return s;
}

VertexId StreamEngine::component_of(VertexId v) const {
  // Query errors are user input errors, not internal invariants: throw a
  // clean message (no LACC_CHECK preamble) the CLI can print verbatim.
  if (v >= n_)
    throw Error("stream query: vertex " + std::to_string(v) +
                " out of range [0, " + std::to_string(n_) + ")");
  return current_labels_[v];
}

std::vector<VertexId> StreamEngine::query(
    std::span<const VertexId> vertices) const {
  std::vector<VertexId> out;
  out.reserve(vertices.size());
  for (const VertexId v : vertices) out.push_back(component_of(v));
  return out;
}

std::vector<VertexId> StreamEngine::query_at(
    std::uint64_t at, std::span<const VertexId> vertices) const {
  if (at > epoch_)
    throw Error("stream query: epoch " + std::to_string(at) +
                " has not happened yet (current epoch " +
                std::to_string(epoch_) + ")");
  // Version chains before the recovered epoch died with the old process
  // (the manifest persists labels' *inputs*, not their history).
  if (recovered_ && at < recovered_epoch_)
    throw Error("stream query: epoch " + std::to_string(at) +
                " predates recovery (earliest recovered epoch " +
                std::to_string(recovered_epoch_) + ")");
  std::vector<VertexId> out;
  out.reserve(vertices.size());
  for (const VertexId v : vertices) {
    if (v >= n_)
      throw Error("stream query: vertex " + std::to_string(v) +
                  " out of range [0, " + std::to_string(n_) + ")");
    VertexId label = v;  // initial state: every vertex its own component
    const auto chain = versions_.find(v);
    if (chain != versions_.end()) {
      for (const auto& [e, l] : chain->second) {
        if (e > at) break;
        label = l;
      }
    }
    out.push_back(label);
  }
  return out;
}

}  // namespace lacc::stream
