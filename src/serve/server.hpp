// lacc::serve — a concurrent query-serving front-end over the incremental
// streaming engine.
//
// The design splits the world into one *engine thread* and any number of
// *client threads*:
//
//   clients ──insert_edge──▶ bounded queue ──▶ engine thread
//                                              ingest + advance_epoch
//                                              (lacc::stream, SPMD)
//   clients ◀──component_of / same_component── SnapshotStore (immutable
//                                              epoch snapshots)
//
// Writes are *micro-batched*: the engine thread closes a batch when either
// `batch_max_edges` inserts are pending or the oldest pending insert has
// waited `batch_window_ms` — the classic size-or-deadline trigger that
// trades epoch overhead against write-visibility latency.  The queue is
// bounded; when it is full, admission control either blocks the writer
// (Admission::kBlock) or sheds the request with kShed so the caller can
// back off (Admission::kShed).  Reads never touch the engine: they load an
// immutable snapshot and answer from plain arrays, so a slow epoch can
// delay *freshness* but never a read.
//
// Consistency model (docs/SERVING.md):
//   * Every snapshot is a *serializable prefix*: epoch e's labels are
//     bit-identical to normalize_labels(lacc_dist(all edges applied through
//     epoch e)) — the streaming engine's invariant, surfaced unchanged.
//   * Reads are monotonic per snapshot handle but, by default, only as
//     fresh as the last published epoch ("read committed").
//   * Read-your-writes: insert_edge returns a ticket; passing that ticket
//     to a read blocks the read until the covering epoch is published, so
//     a session always observes its own accepted writes.
//
// The engine thread is joined (never detached) in stop()/the destructor —
// tools/lint_spmd.py enforces the no-detached-threads rule tree-wide.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/edge_list.hpp"
#include "kernel/kernels.hpp"
#include "obs/latency.hpp"
#include "serve/ingest_queue.hpp"
#include "serve/snapshot.hpp"
#include "serve/trace.hpp"
#include "sim/machine.hpp"
#include "stream/engine.hpp"

namespace lacc::serve {

/// What to do with a write when the ingest queue is full.
enum class Admission {
  kBlock,  ///< writer waits for queue space (backpressure)
  kShed,   ///< reject immediately with ServeStatus::kShed (load shedding)
};

/// Outcome of one serving request.
enum class ServeStatus {
  kOk = 0,
  kShed,           ///< write rejected by admission control
  kUnknownVertex,  ///< vertex id outside [0, n)
  kRetiredEpoch,   ///< pinned epoch older than the retention window
  kFutureEpoch,    ///< pinned epoch not published yet
  kInvalidTicket,  ///< session ticket was never issued
  kStopped,        ///< server is shutting down
};

const char* to_string(ServeStatus status);

struct ServeOptions {
  /// Streaming policy of the underlying engine (compaction factor,
  /// durability, LaccOptions).
  stream::StreamOptions stream;

  /// Close the pending batch once this many edges are queued...
  std::size_t batch_max_edges = 1024;
  /// ...or once the oldest pending edge has waited this long.
  double batch_window_ms = 2.0;

  /// Ingest queue capacity; beyond it, `admission` decides.
  std::size_t queue_capacity = 1 << 16;
  Admission admission = Admission::kBlock;

  /// Epochs kept pinnable for time-travel reads; older ones retire.
  std::size_t retain_epochs = 8;
  /// log2 slots of each snapshot's pair-query cache (0 disables).
  std::uint32_t pair_cache_bits = 12;
  /// Entries of each snapshot's top-components view.
  std::size_t top_k = 8;

  /// Attach a frozen kernel::GraphView to every published snapshot and
  /// enable the analytics endpoints (bfs_dist / pagerank_topk /
  /// triangle_count).  Off by default: freezing costs a per-epoch view
  /// build (zero-copy when no delta runs are resident) and keeps retained
  /// epochs' graph structure alive.
  bool enable_kernel_queries = false;
  /// Tuning/convergence knobs for the analytics kernels.
  kernel::KernelOptions kernel_options;

  /// Record per-request spans (exportable via write_request_trace).
  bool record_requests = false;
  /// Keep every applied batch for post-hoc verification (lacc_serve_cli
  /// --verify); costs memory proportional to the total edge stream.
  bool record_applied = false;

  /// Sharded deployments (lacc::shard::Router): called from the engine
  /// thread after each epoch commit with the cross-shard edges that epoch
  /// extracted, *before* the epoch's snapshot publishes and its tickets are
  /// marked applied — so a global snapshot whose per-shard watermark covers
  /// a ticket has necessarily seen that ticket's boundary edges.  Must be
  /// thread-safe against the router's reconcile thread.  Null when
  /// unsharded.
  std::function<void(std::vector<graph::Edge>, std::uint64_t)> boundary_sink;
  /// Shard id stamped on this server's request-log spans (-1 = unsharded).
  int shard_tag = -1;
};

/// A write acknowledgement: `ticket` is the session token to pass to reads
/// that must observe this write (valid only when status == kOk).
struct WriteResult {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t ticket = 0;
};

/// A read answer.  `epoch` is the snapshot the answer was served from.
struct ReadResult {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t epoch = 0;
  VertexId label = kNoVertex;  ///< component_of answers
  bool same = false;           ///< same_component answers
};

/// One analytics query answer.  `epoch` is the snapshot the kernel ran
/// against; the kernel payload is valid only when status == kOk.
struct BfsQueryResult {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t epoch = 0;
  kernel::BfsResult result;
};

struct PageRankQueryResult {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t epoch = 0;
  std::vector<kernel::RankEntry> top;  ///< top-k by rank, ties by min id
  double l1_residual = 0;
  bool converged = false;
  kernel::KernelStats stats;
};

struct TriangleQueryResult {
  ServeStatus status = ServeStatus::kOk;
  std::uint64_t epoch = 0;
  std::uint64_t triangles = 0;
  kernel::KernelStats stats;
};

/// Point-in-time serving statistics (safe to call from any thread).
struct ServeStats {
  std::uint64_t reads = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t writes_accepted = 0;
  std::uint64_t writes_shed = 0;
  std::uint64_t batches = 0;          ///< epochs advanced by the engine thread
  std::uint64_t batched_edges = 0;    ///< edges folded into those epochs
  std::uint64_t queue_depth = 0;      ///< pending writes right now
  std::uint64_t max_queue_depth = 0;
  std::uint64_t cache_hits = 0;       ///< summed over retained snapshots
  std::uint64_t cache_misses = 0;
  std::uint64_t current_epoch = 0;
  std::uint64_t components = 0;
  double run_seconds = 0;             ///< since server construction
  double epochs_per_sec = 0;
  double read_p50 = 0, read_p95 = 0, read_p99 = 0;        ///< seconds
  double commit_p50 = 0, commit_p95 = 0, commit_p99 = 0;  ///< seconds
  std::uint64_t kernel_queries = 0;  ///< analytics endpoint calls
  std::uint64_t kernel_query_errors = 0;
  double kernel_modeled_seconds = 0;  ///< summed kernel modeled time
};

/// Concurrent connected-components server.  Construction publishes the
/// epoch-0 snapshot (every vertex its own component) and starts the engine
/// thread; reads are safe from any thread immediately.
class Server {
 public:
  Server(VertexId n, int nranks, const sim::MachineModel& machine,
         ServeOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  VertexId num_vertices() const { return n_; }
  int ranks() const { return nranks_; }
  const ServeOptions& options() const { return options_; }

  /// Queue one edge insert.  Returns the session ticket on acceptance;
  /// kUnknownVertex for endpoints outside [0, n); kShed under a full queue
  /// with Admission::kShed; kStopped after stop().  Self-loops and
  /// duplicates are accepted (and ticketed) — canonicalization inside the
  /// engine drops them from the graph.
  WriteResult insert_edge(VertexId u, VertexId v);

  /// Component label of v at the latest epoch.  A non-zero `ticket` makes
  /// this a session read: it first waits until the epoch covering that
  /// write is published (read-your-writes).
  ReadResult component_of(VertexId v, std::uint64_t ticket = 0) const;

  /// Are u and v connected at the latest epoch (session semantics as
  /// component_of)?
  ReadResult same_component(VertexId u, VertexId v,
                            std::uint64_t ticket = 0) const;

  /// Pinned-epoch variants: answer exactly at `epoch`, or report
  /// kRetiredEpoch / kFutureEpoch.
  ReadResult component_at(std::uint64_t epoch, VertexId v) const;
  ReadResult same_component_at(std::uint64_t epoch, VertexId u,
                               VertexId v) const;

  /// The latest snapshot (never null), and a pinned epoch's snapshot.
  std::shared_ptr<const Snapshot> snapshot() const;
  SnapshotStore::Lookup snapshot_at(std::uint64_t epoch,
                                    std::shared_ptr<const Snapshot>& out) const;

  /// Analytics endpoints (require ServeOptions::enable_kernel_queries,
  /// else they throw Error — a configuration mistake, not a request
  /// error).  Each runs its kernel on the *caller's* thread against the
  /// latest (or, for the _at variants, a pinned retention-ring) snapshot's
  /// frozen view, so analytics never block ingest: the engine thread keeps
  /// advancing epochs while a kernel runs, and compaction copies-on-write
  /// around the pinned view.
  BfsQueryResult bfs_dist(VertexId source) const;
  BfsQueryResult bfs_dist_at(std::uint64_t epoch, VertexId source) const;
  PageRankQueryResult pagerank_topk(std::size_t k) const;
  PageRankQueryResult pagerank_topk_at(std::uint64_t epoch,
                                       std::size_t k) const;
  TriangleQueryResult triangle_count() const;
  TriangleQueryResult triangle_count_at(std::uint64_t epoch) const;

  /// Highest write ticket covered by a published epoch — the shard's
  /// applied-seq watermark.  The router reads this *before* grabbing
  /// snapshot() so the (watermark, snapshot) pair it composes into a global
  /// epoch is conservative: the snapshot covers at least the watermark.
  std::uint64_t applied_seq() const;

  /// Highest write ticket ever issued; seqs above it were never accepted,
  /// so a session mark beyond this is an invalid ticket.
  std::uint64_t accepted_seq() const;

  /// Force the pending batch to close now and wait until every accepted
  /// write is covered by a published epoch.
  void flush();

  /// Stop accepting writes, drain the queue, and join the engine thread.
  /// Idempotent; the destructor calls it.
  void stop();
  bool stopped() const;

  ServeStats stats() const;
  const RequestLog& request_log() const { return log_; }

  /// Post-stop access for verification and metrics export: the engine's
  /// per-epoch records, and (with record_applied) the raw edge batch each
  /// epoch applied (applied_batches()[e - 1] is epoch e's batch).
  const std::vector<stream::EpochStats>& engine_history() const;
  const std::vector<graph::EdgeList>& applied_batches() const;
  double engine_modeled_seconds() const;

  /// Durability pass-throughs (set at construction, safe from any thread).
  bool durable() const { return engine_.durable(); }
  bool recovered() const { return engine_.recovered(); }
  std::uint64_t recovered_epoch() const { return engine_.recovered_epoch(); }
  /// Durable I/O counters + recovery info; only safe after stop() (the
  /// engine thread mutates the counters while running).
  stream::durable::DurabilityStats durability_stats() const;

 private:
  struct PendingWrite {
    VertexId u, v;
    std::uint64_t seq;
    std::chrono::steady_clock::time_point enqueued;
  };

  void engine_main();
  void apply_batch(std::vector<PendingWrite> batch);
  /// Freeze the engine's current epoch into a snapshot-attachable view
  /// (null unless kernel queries are enabled).  Engine-thread / pre-start
  /// only, like every engine collective.
  std::shared_ptr<const kernel::GraphView> maybe_freeze_view();
  /// Resolve the snapshot a kernel query runs against: the latest
  /// (pinned=false) or the ring entry at `epoch`.  Returns kOk with a
  /// non-null snap, or the lookup failure status.  Throws Error when
  /// kernel queries are disabled.
  ServeStatus kernel_snapshot(bool pinned, std::uint64_t epoch,
                              std::shared_ptr<const Snapshot>& snap) const;
  void record_kernel(const kernel::KernelStats& stats, bool ok) const;
  BfsQueryResult bfs_impl(bool pinned, std::uint64_t epoch,
                          VertexId source) const;
  PageRankQueryResult pagerank_impl(bool pinned, std::uint64_t epoch,
                                    std::size_t k) const;
  TriangleQueryResult triangles_impl(bool pinned, std::uint64_t epoch) const;
  ServeStatus wait_for_ticket(std::uint64_t ticket) const;
  ReadResult read_latest(const char* what, VertexId u, VertexId v, bool pair,
                         std::uint64_t ticket) const;
  ReadResult read_pinned(const char* what, std::uint64_t epoch, VertexId u,
                         VertexId v, bool pair) const;

  const VertexId n_;
  const int nranks_;
  const ServeOptions options_;

  SnapshotStore store_;
  mutable RequestLog log_;

  /// Bounded write queue + ticket watermark (serve/ingest_queue.hpp).
  mutable IngestQueue<PendingWrite> ingest_;
  std::once_flag stop_once_;
  std::atomic<bool> stopped_{false};  ///< set after the engine thread joins

  // Engine-thread-only state (plus post-join readers).
  stream::StreamEngine engine_;
  std::vector<graph::EdgeList> applied_batches_;

  // Monitoring (atomics: updated lock-free from any thread).
  mutable std::atomic<std::uint64_t> reads_{0};
  mutable std::atomic<std::uint64_t> read_errors_{0};
  std::atomic<std::uint64_t> writes_accepted_{0};
  std::atomic<std::uint64_t> writes_shed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_edges_{0};
  mutable std::atomic<std::uint64_t> kernel_queries_{0};
  mutable std::atomic<std::uint64_t> kernel_query_errors_{0};
  /// Summed kernel modeled seconds in microsecond ticks (atomic double via
  /// integer, same idiom as the router's reconcile clock).
  mutable std::atomic<std::uint64_t> kernel_modeled_us_{0};
  mutable obs::LatencyHistogram read_latency_;
  obs::LatencyHistogram commit_latency_;
  const std::chrono::steady_clock::time_point started_;

  std::thread engine_thread_;  ///< last member: joined in stop()
};

}  // namespace lacc::serve
