// Exact triangle counting: masked SpGEMM shape (L · Uᵀ against the mask of
// stored edges) on the degree-oriented graph, executed as q SUMMA-style
// stages — the Schank–Wagner "forward" algorithm, the same idea as
// LAGraph's degree presort.
//
// Order: vertices are ranked by ≺ = (degree, id).  One world allgatherv
// collects every rank's owned-chunk degrees (n words), so each rank can
// orient any edge.  N⁺(x) = {w ∈ N(x) : x ≺ w} keeps at most
// O(sqrt(m)) high-ranked neighbors per vertex, so a hub never rescans its
// own list once per neighbor.
//
// Setup: each processor column j assembles the *full* adjacency of its
// column range C_j with one allgatherv inside the column communicator —
// the same gather alignment SpMV uses, and because grid rows own ascending
// row blocks, a stable counting sort by column leaves every neighbor list
// sorted.  It then filters those lists down to N⁺; filtering keeps id
// order, so no sort is needed.  Stage k broadcasts grid column k's N⁺ lists
// along processor rows (root = row-communicator rank k, whose ranks all
// hold identical assembled data), and every rank counts the triangles whose
// ≺-middle vertex it owns: rank (i, j) owns the vertices of vector chunk
// j*q + i, and for each owned v it flags N⁺(v) in a per-rank n-length
// array, scans N⁺(u) for every neighbor u ≺ v in C_k, and clears only the
// flags it set.  Each triangle u ≺ v ≺ w is counted exactly once, at v.
//
// Counts are integers, so results are bit-identical across rank counts.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "dist/dist_mat.hpp"
#include "dist/grid.hpp"
#include "dist/ops.hpp"
#include "kernel/kernels.hpp"
#include "sim/runtime.hpp"
#include "support/partition.hpp"

namespace lacc::kernel {

namespace {

/// Column-compressed adjacency of one grid column's range [begin, end):
/// colptr has end - begin + 1 entries, rows holds ascending neighbor ids.
struct GatheredColumns {
  VertexId begin = 0;
  VertexId end = 0;
  std::vector<std::uint64_t> colptr;
  std::vector<VertexId> rows;

  std::span<const VertexId> neighbors(VertexId col) const {
    const auto c = static_cast<std::size_t>(col - begin);
    return {rows.data() + colptr[c], rows.data() + colptr[c + 1]};
  }
};

/// Assemble the full adjacency of this rank's column range by gathering
/// every grid row's block slice inside the column communicator.
GatheredColumns gather_columns(dist::ProcGrid& grid, const dist::DistCsc& A) {
  std::vector<dist::CscCoord> local;
  local.reserve(static_cast<std::size_t>(A.local_nnz()));
  const auto& cols = A.col_ids();
  for (std::size_t ci = 0; ci < cols.size(); ++ci)
    for (const VertexId r : A.col_rows(ci)) local.push_back({r, cols[ci]});
  const std::vector<dist::CscCoord> gathered =
      grid.col_comm().allgatherv(local);

  GatheredColumns out;
  out.begin = A.col_begin();
  out.end = A.col_end();
  const auto width = static_cast<std::size_t>(out.end - out.begin);
  out.colptr.assign(width + 1, 0);
  for (const auto& c : gathered)
    ++out.colptr[static_cast<std::size_t>(c.col - out.begin) + 1];
  for (std::size_t c = 1; c <= width; ++c) out.colptr[c] += out.colptr[c - 1];
  out.rows.resize(gathered.size());
  // Stable counting sort by column: each source segment is (col, row)
  // sorted and segments arrive in ascending grid-row order, so every
  // column's rows land ascending.
  std::vector<std::uint64_t> cursor(out.colptr.begin(), out.colptr.end() - 1);
  for (const auto& c : gathered)
    out.rows[cursor[static_cast<std::size_t>(c.col - out.begin)]++] = c.row;
  grid.world().charge_compute(static_cast<double>(gathered.size()) * 2);
  return out;
}

/// deg[v] for every vertex: each rank contributes its owned chunk's degrees
/// (read off the gathered colptr) to one world allgatherv, then places the
/// rank-ordered segments at their chunk offsets.
std::vector<std::uint64_t> gather_degrees(dist::ProcGrid& grid,
                                          const BlockPartition& part,
                                          const GatheredColumns& mine,
                                          VertexId vbegin, VertexId vend) {
  std::vector<std::uint64_t> owned;
  owned.reserve(static_cast<std::size_t>(vend - vbegin));
  for (VertexId v = vbegin; v < vend; ++v)
    owned.push_back(mine.neighbors(v).size());
  const std::vector<std::uint64_t> gathered =
      grid.world().allgatherv(owned);

  // World rank r = (i, j) owns vector chunk j*q + i.
  const auto q = static_cast<std::uint64_t>(grid.q());
  std::vector<std::uint64_t> deg(static_cast<std::size_t>(part.n));
  auto at = gathered.begin();
  for (std::uint64_t r = 0; r < q * q; ++r) {
    const std::uint64_t chunk = (r % q) * q + r / q;
    const auto len = static_cast<std::ptrdiff_t>(part.size(chunk));
    std::copy(at, at + len,
              deg.begin() + static_cast<std::ptrdiff_t>(part.begin(chunk)));
    at += len;
  }
  return deg;
}

/// a ≺ b under the (degree, id) total order.
bool precedes(const std::vector<std::uint64_t>& deg, VertexId a, VertexId b) {
  return deg[a] != deg[b] ? deg[a] < deg[b] : a < b;
}

/// N⁺ lists of `adj`: each column keeps only its ≺-later neighbors, in the
/// same ascending id order.
GatheredColumns orient(dist::ProcGrid& grid, const GatheredColumns& adj,
                       const std::vector<std::uint64_t>& deg) {
  GatheredColumns up;
  up.begin = adj.begin;
  up.end = adj.end;
  const auto width = static_cast<std::size_t>(adj.end - adj.begin);
  up.colptr.assign(width + 1, 0);
  for (std::size_t c = 0; c < width; ++c) {
    const VertexId x = adj.begin + c;
    for (const VertexId w : adj.neighbors(x))
      if (precedes(deg, x, w)) up.rows.push_back(w);
    up.colptr[c + 1] = up.rows.size();
  }
  grid.world().charge_compute(static_cast<double>(adj.rows.size()));
  return up;
}

}  // namespace

TriangleCountResult triangle_count(const GraphView& view,
                                   const KernelOptions& options) {
  (void)options;  // the stage schedule has no tuning knobs yet
  const int nranks = view.nranks();
  TriangleCountResult result;
  std::vector<double> modeled(static_cast<std::size_t>(nranks), 0);
  std::uint64_t rounds_out = 0;
  std::uint64_t words_out = 0;

  auto spmd = sim::run_spmd(nranks, view.machine(), [&](sim::Comm& world) {
    dist::ProcGrid grid(world);
    sim::Region region(world, "kernel-tc");
    const dist::DistCsc& A = view.block(world.rank());
    const auto q = static_cast<std::uint64_t>(grid.q());
    const BlockPartition& part = A.chunk_partition();

    // The vertices this rank is responsible for: its own vector chunk,
    // which lies inside its column range C_j.
    const std::uint64_t chunk =
        static_cast<std::uint64_t>(grid.my_col()) * q +
        static_cast<std::uint64_t>(grid.my_row());
    const VertexId vbegin = part.begin(chunk);
    const VertexId vend = part.end(chunk);

    const GatheredColumns mine = gather_columns(grid, A);
    const std::vector<std::uint64_t> deg =
        gather_degrees(grid, part, mine, vbegin, vend);
    GatheredColumns up = orient(grid, mine, deg);
    std::uint64_t words = mine.rows.size() + part.n;

    std::vector<std::uint8_t> flag(static_cast<std::size_t>(part.n), 0);
    GatheredColumns received;
    std::uint64_t local = 0;
    for (std::uint64_t k = 0; k < q; ++k) {
      sim::Region stage(world, "tc-stage", static_cast<std::int64_t>(k));
      // The root's N⁺ lists are already in `up`; everyone else receives.
      received.begin = part.begin(k * q);
      received.end = part.begin((k + 1) * q);
      GatheredColumns& other =
          static_cast<std::uint64_t>(grid.my_col()) == k ? up : received;
      grid.row_comm().bcast(other.colptr, static_cast<int>(k));
      grid.row_comm().bcast(other.rows, static_cast<int>(k));
      words += other.rows.size();

      double work = 0;
      for (VertexId v = vbegin; v < vend; ++v) {
        const auto up_v = up.neighbors(v);
        if (up_v.empty()) continue;  // v is no triangle's middle vertex
        // Wedge edges u ≺ v with u owned by stage column k; neighbor lists
        // are sorted, so the stage column's slice is contiguous.
        const auto nv = mine.neighbors(v);
        const auto ub = std::lower_bound(nv.begin(), nv.end(), other.begin);
        const auto ue = std::lower_bound(ub, nv.end(), other.end);
        work += static_cast<double>(ue - ub);
        bool flagged = false;
        for (auto iu = ub; iu != ue; ++iu) {
          if (!precedes(deg, *iu, v)) continue;
          if (!flagged) {
            for (const VertexId w : up_v) flag[w] = 1;
            flagged = true;
          }
          const auto up_u = other.neighbors(*iu);
          work += static_cast<double>(up_u.size());
          for (const VertexId w : up_u) local += flag[w];
        }
        if (flagged) {
          for (const VertexId w : up_v) flag[w] = 0;
          work += 2 * static_cast<double>(up_v.size());
        }
      }
      world.charge_compute(work);
    }

    const std::uint64_t total = world.allreduce(
        local, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    modeled[static_cast<std::size_t>(world.rank())] = world.state().sim_time;
    if (world.rank() == 0) {
      result.triangles = total;
      rounds_out = q;
      words_out = words;
    }
  });

  result.stats.rounds = rounds_out;
  result.stats.words_moved = words_out;
  for (const double m : modeled)
    result.stats.modeled_seconds = std::max(result.stats.modeled_seconds, m);
  result.stats.wall_seconds = spmd.wall_seconds;
  result.stats.epoch = view.epoch();
  result.stats.spmd = std::move(spmd);
  return result;
}

}  // namespace lacc::kernel
