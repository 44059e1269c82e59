// Semiring kernels over a GraphView: BFS, PageRank, triangle counting.
//
// LACC reduces connected components to GraphBLAS primitives; these kernels
// host three more analytics on the same machinery by swapping the semiring
// (FastSV generalized the CC skeleton the same way):
//
//   kernel       semiring           distributed shape
//   ------       -----------------  ---------------------------------------
//   bfs          (min, Select2nd)   frontier mxv per level; the SpMV/SpMSpV
//                                   density switch inside mxv_select2nd is
//                                   the push/pull direction switch — sparse
//                                   frontiers merge-join columns, dense
//                                   frontiers scan them
//   pagerank     (plus, times)      dense mxv_plus per iteration, rank-local
//                                   dangling mass folded via one allreduce,
//                                   L1 convergence
//   triangles    (plus, land) mask  masked SpGEMM shape on the graph
//                                   oriented by (degree, id): one degree
//                                   allgatherv, then q SUMMA-style stages
//                                   broadcasting one grid column's N⁺
//                                   lists along processor rows, counted at
//                                   each triangle's middle vertex by
//                                   flag-array lookups
//
// Every kernel runs its own SPMD session over view.nranks() virtual ranks,
// emits per-round obs spans (kernel-bfs/bfs-round, kernel-pagerank/
// pagerank-round, kernel-tc/tc-stage), and accounts modeled time through
// the machine cost model.  Results are deterministic for a given view: BFS
// and triangle counts are bit-identical across rank counts; PageRank values
// agree across rank counts only to floating-point rounding (summation
// order differs), which is why serving equality tests pin it by tolerance.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/ops.hpp"
#include "kernel/view.hpp"
#include "sim/runtime.hpp"
#include "support/types.hpp"

namespace lacc::kernel {

/// Knobs shared by the kernels.  `tuning` maps onto the same communication
/// machinery as LACC itself (the dense_threshold doubles as the BFS
/// direction-switch point).
struct KernelOptions {
  dist::CommTuning tuning;
  double damping = 0.85;         ///< PageRank damping factor
  double tolerance = 1e-12;      ///< PageRank L1 convergence threshold
  int max_iterations = 200;      ///< PageRank iteration cap
};

/// Accounting shared by every kernel result.
struct KernelStats {
  std::uint64_t rounds = 0;      ///< BFS levels / PR iterations / TC stages
  double modeled_seconds = 0;    ///< max over ranks, machine cost model
  double wall_seconds = 0;
  /// Vector elements through the collectives: frontier entries (BFS), dense
  /// rank-vector elements (PageRank), and for TC the gathered adjacency
  /// entries + broadcast N⁺ entries + n degree words.
  std::uint64_t words_moved = 0;
  std::uint64_t epoch = 0;       ///< view epoch the kernel ran against
  sim::SpmdResult spmd;          ///< per-rank counters for metrics / traces
};

struct BfsResult {
  /// Hop distance from the source per vertex; kNoVertex = unreachable.
  std::vector<VertexId> dist;
  /// BFS-tree parent: the *minimum-id* previous-level neighbor (the min
  /// semiring makes the tree deterministic); parent[source] == source,
  /// kNoVertex = unreachable.
  std::vector<VertexId> parent;
  std::uint64_t reached = 0;  ///< vertices reached, source included
  KernelStats stats;
};

struct PageRankResult {
  std::vector<double> rank;   ///< sums to 1 over all vertices
  double l1_residual = 0;     ///< final iteration's L1 delta
  bool converged = false;     ///< residual hit tolerance before the cap
  KernelStats stats;
};

struct TriangleCountResult {
  std::uint64_t triangles = 0;
  KernelStats stats;
};

/// Direction-aware BFS from `source` over the (Select2nd, min) semiring:
/// one masked mxv per level with the complement-of-visited mask.  Throws
/// lacc::Error on an out-of-range source (a query input error).
BfsResult bfs(const GraphView& view, VertexId source,
              const KernelOptions& options = {});

/// PageRank by power iteration over (plus, times) mxv: every vertex's rank
/// pulls from its neighbors, dangling (degree-0) mass is summed rank-local
/// and redistributed uniformly via one allreduce per iteration, and the
/// iteration stops when the L1 delta drops to options.tolerance.
PageRankResult pagerank(const GraphView& view,
                        const KernelOptions& options = {});

/// Exact triangle count by the degree-oriented "forward" algorithm: rank
/// vertices by ≺ = (degree, id) after one world allgatherv of degrees, keep
/// each vertex's ≺-later neighbors N⁺, and run q SUMMA-style stages; stage
/// k broadcasts grid column k's N⁺ lists along processor rows and every
/// rank counts, for each owned v and neighbor u ≺ v, the w ∈ N⁺(u) ∩ N⁺(v)
/// through a flag array (the masked L·Uᵀ shape, so each triangle u ≺ v ≺ w
/// counts exactly once, at v).
TriangleCountResult triangle_count(const GraphView& view,
                                   const KernelOptions& options = {});

/// Top-k vertices by rank, descending; ties broken by smaller vertex id so
/// the serving answer is deterministic (the same convention as
/// core::top_k_components).
struct RankEntry {
  VertexId v = 0;
  double rank = 0;
};
std::vector<RankEntry> top_k_ranks(const std::vector<double>& ranks,
                                   std::size_t k);

}  // namespace lacc::kernel
