// Exact triangle counting via the degree-oriented masked L·Uᵀ SUMMA stages:
// closed-form counts, oracle agreement (including graphs whose hubs and
// degree ties sit at arbitrary ids), robustness to dirty edge lists, the
// bit-identical determinism contract across rank counts, and linear cost
// wherever a hub's id lands.
#include "kernel/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "kernel/reference.hpp"
#include "kernel/view.hpp"
#include "sim/machine.hpp"

namespace lacc::kernel {
namespace {

const sim::MachineModel& machine() {
  static const sim::MachineModel m = sim::MachineModel::edison();
  return m;
}

std::uint64_t count(const graph::EdgeList& el, int nranks) {
  return triangle_count(GraphView::from_edges(el, nranks, machine()))
      .triangles;
}

void expect_reference_at_every_rank_count(const graph::EdgeList& el) {
  const auto truth = reference_triangle_count(el);
  for (const int nranks : {1, 4, 9})
    EXPECT_EQ(count(el, nranks), truth) << "nranks=" << nranks;
}

/// Wheel W_n: a hub joined to every vertex of an (n-1)-cycle rim.  The rim
/// is the other ids in ascending order, so only the hub's id moves.
graph::EdgeList wheel(VertexId n, VertexId hub) {
  std::vector<VertexId> rim;
  for (VertexId v = 0; v < n; ++v)
    if (v != hub) rim.push_back(v);
  graph::EdgeList el(n);
  for (std::size_t i = 0; i < rim.size(); ++i) {
    el.add(hub, rim[i]);
    el.add(rim[i], rim[(i + 1) % rim.size()]);
  }
  return el;
}

TEST(Triangles, CompleteGraphIsNChoose3) {
  // C(10, 3) = 120.
  for (const int nranks : {1, 4, 9})
    EXPECT_EQ(count(graph::complete(10), nranks), 120u);
}

TEST(Triangles, TriangleFreeGraphsCountZero) {
  EXPECT_EQ(count(graph::path(25), 4), 0u);
  EXPECT_EQ(count(graph::cycle(24), 4), 0u);
  EXPECT_EQ(count(graph::star(30), 4), 0u);
}

TEST(Triangles, SingleTriangle) { EXPECT_EQ(count(graph::cycle(3), 4), 1u); }

TEST(Triangles, MatchesReferenceOnRmat) {
  const auto el = graph::rmat(8, 3000, /*seed=*/13);
  const auto truth = reference_triangle_count(el);
  for (const int nranks : {1, 4, 9}) EXPECT_EQ(count(el, nranks), truth);
}

TEST(Triangles, MatchesReferenceOnMesh) {
  const auto el = graph::mesh3d(6, 6, 6);
  const auto truth = reference_triangle_count(el);
  EXPECT_GT(truth, 0u);  // the 27-point stencil is full of triangles
  for (const int nranks : {1, 4, 9}) EXPECT_EQ(count(el, nranks), truth);
}

TEST(Triangles, MatchesReferenceWhenHubsLandAtArbitraryIds) {
  expect_reference_at_every_rank_count(
      graph::permute_vertices(graph::rmat(10, 8000, /*seed=*/5), /*seed=*/21));
}

TEST(Triangles, MatchesReferenceWithDegreeTiesBesideAHub) {
  // K7's vertices all tie at degree 6; the star's leaves tie at degree 1.
  const auto el = graph::disjoint_union(graph::complete(7), graph::star(20));
  EXPECT_EQ(reference_triangle_count(el), 35u);
  expect_reference_at_every_rank_count(el);
}

TEST(Triangles, EdgelessGraphCountsZero) {
  for (const int nranks : {1, 4, 9})
    EXPECT_EQ(count(graph::empty_graph(50), nranks), 0u);
}

TEST(Triangles, WheelCostIsLinearWhereverTheHubSits) {
  // Orienting edges by (degree, id) makes the hub every triangle's last
  // vertex, so its own list is never rescanned per neighbor: the modeled
  // time roughly doubles with n and does not care where the hub's id is.
  const VertexId sizes[] = {4096, 8192};
  double seconds[2][2] = {};  // [hub first / hub last][size]
  for (std::size_t s = 0; s < 2; ++s) {
    const VertexId n = sizes[s];
    const VertexId hubs[] = {0, n - 1};
    for (std::size_t h = 0; h < 2; ++h) {
      const auto result =
          triangle_count(GraphView::from_edges(wheel(n, hubs[h]), 4, machine()));
      EXPECT_EQ(result.triangles, n - 1) << "n=" << n << " hub=" << hubs[h];
      seconds[h][s] = result.stats.modeled_seconds;
    }
  }
  for (std::size_t h = 0; h < 2; ++h)
    EXPECT_LT(seconds[h][1] / seconds[h][0], 2.5) << "hub placement " << h;
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_LE(std::abs(seconds[0][s] - seconds[1][s]),
              0.1 * std::max(seconds[0][s], seconds[1][s]))
        << "n=" << sizes[s];
}

TEST(Triangles, SelfLoopsAndDuplicateEdgesIgnored) {
  graph::EdgeList el(5);
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 0);
  el.add(0, 2);  // duplicate, reversed
  el.add(3, 3);  // self-loop
  el.add(1, 2);  // duplicate
  EXPECT_EQ(count(el, 4), 1u);
  EXPECT_EQ(reference_triangle_count(el), 1u);
}

TEST(Triangles, StageCountIsGridDimension) {
  const auto el = graph::complete(12);
  for (const int nranks : {1, 4, 9}) {
    const auto result =
        triangle_count(GraphView::from_edges(el, nranks, machine()));
    // q SUMMA stages for a q x q grid.
    std::uint64_t q = 1;
    while (static_cast<int>(q * q) < nranks) ++q;
    EXPECT_EQ(result.stats.rounds, q);
    EXPECT_GT(result.stats.modeled_seconds, 0.0);
  }
}

}  // namespace
}  // namespace lacc::kernel
