// Property-based validation of the streaming engine: after every randomized
// batch, the incremental labels must match serial_cc and union-find on the
// accumulated graph — across 1/4/9 ranks — and must be bit-identical to
// normalize_labels of a from-scratch lacc_dist run for every LaccOptions
// flag combination (the same 8-combo sweep as the golden determinism test).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/serial_cc.hpp"
#include "baselines/union_find.hpp"
#include "core/lacc_dist.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "stream/engine.hpp"
#include "support/rng.hpp"

namespace lacc::stream {
namespace {

struct Workload {
  std::string family;
  std::uint64_t seed;
  int ranks;

  graph::EdgeList build() const {
    const VertexId n = 300 + 41 * (seed % 7);
    if (family == "er") return graph::erdos_renyi(n, 2 * n, seed);
    if (family == "clustered")
      return graph::clustered_components(n, 12 + seed % 5, 4.0, seed);
    if (family == "forest") return graph::path_forest(n, 7 + seed % 5, seed);
    throw Error("unknown family " + family);
  }
};

/// Split an edge list into randomized batches (deterministic shuffle).
std::vector<graph::EdgeList> random_batches(const graph::EdgeList& el,
                                            std::size_t parts,
                                            std::uint64_t seed) {
  auto edges = el.edges;
  Xoshiro256 rng(seed);
  for (std::size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[rng.below(i)]);
  std::vector<graph::EdgeList> out(parts, graph::EdgeList(el.n));
  for (std::size_t k = 0; k < edges.size(); ++k)
    out[k % parts].edges.push_back(edges[k]);
  return out;
}

/// 260 vertices in 4 batches.  The first is every edge of a dense graph on
/// vertices 0..129: on the empty graph each distinct edge is a cross pair,
/// and there are more than 2·n of them, so epoch 1 takes the rebuild path.
/// Three random batches follow, streaming a sparse graph on the other 130
/// vertices plus a few bridges into the dense part; they stay incremental.
std::vector<graph::EdgeList> rebuild_then_incremental_batches(
    std::uint64_t seed) {
  const auto bulk = graph::clustered_components(130, 5, 12.0, /*seed=*/17);
  const auto sparse = graph::clustered_components(130, 5, 4.0, /*seed=*/18);
  auto rest = graph::disjoint_union(bulk, sparse);
  rest.edges.erase(rest.edges.begin(),
                   rest.edges.begin() +
                       static_cast<std::ptrdiff_t>(bulk.edges.size()));
  for (VertexId k = 0; k < 6; ++k)
    rest.add(k * 17 % bulk.n, bulk.n + k * 13 % sparse.n);
  std::vector<graph::EdgeList> out(1, graph::EdgeList(rest.n));
  out[0].edges = bulk.edges;
  for (auto& batch : random_batches(rest, 3, seed))
    out.push_back(std::move(batch));
  return out;
}

class StreamProperty : public ::testing::TestWithParam<Workload> {};

TEST_P(StreamProperty, EveryEpochMatchesSerialCcAndUnionFind) {
  const Workload& w = GetParam();
  const auto full = w.build();
  const auto batches = random_batches(full, 5, w.seed + 99);

  StreamEngine engine(full.n, w.ranks, sim::MachineModel::local());
  graph::EdgeList accumulated(full.n);
  for (const auto& batch : batches) {
    accumulated.edges.insert(accumulated.edges.end(), batch.edges.begin(),
                             batch.edges.end());
    engine.ingest(batch);
    engine.advance_epoch();

    const auto truth = baselines::union_find_cc(accumulated);
    ASSERT_EQ(engine.labels(), core::normalize_labels(truth.parent));
    const auto serial = baselines::bfs_cc(graph::Csr(accumulated));
    ASSERT_TRUE(core::same_partition(engine.labels(), serial.parent));
    ASSERT_EQ(engine.num_components(),
              core::count_components(truth.parent));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndFamilies, StreamProperty,
    ::testing::Values(Workload{"er", 1, 1}, Workload{"er", 2, 4},
                      Workload{"er", 3, 9}, Workload{"clustered", 4, 1},
                      Workload{"clustered", 5, 4}, Workload{"clustered", 6, 9},
                      Workload{"forest", 7, 4}, Workload{"forest", 8, 9}),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return info.param.family + "_s" + std::to_string(info.param.seed) +
             "_r" + std::to_string(info.param.ranks);
    });

/// All 8 LaccOptions flag combos of the golden determinism sweep: the
/// engine's labels must be bit-identical to a from-scratch lacc_dist run on
/// the accumulated graph at every epoch, under every combo.
TEST(StreamOptionSweep, AllFlagCombosBitIdenticalToFromScratchLacc) {
  // The bulk first batch takes the rebuild path, the rest the incremental
  // one, under every combo.
  const auto batches = rebuild_then_incremental_batches(/*seed=*/23);
  const VertexId n = batches.front().n;
  for (const bool sparse : {false, true}) {
    for (const bool hypercube : {false, true}) {
      for (const bool cyclic : {false, true}) {
        StreamOptions options;
        options.lacc.use_sparse_vectors = sparse;
        options.lacc.sparse_uncond_hooking = sparse;
        options.lacc.hypercube_alltoall = hypercube;
        options.lacc.cyclic_vectors = cyclic;

        StreamEngine engine(n, 4, sim::MachineModel::local(), options);
        graph::EdgeList accumulated(n);
        bool saw_incremental = false, saw_rebuild = false;
        for (const auto& batch : batches) {
          accumulated.edges.insert(accumulated.edges.end(),
                                   batch.edges.begin(), batch.edges.end());
          engine.ingest(batch);
          const auto st = engine.advance_epoch();
          (st.full_rebuild ? saw_rebuild : saw_incremental) = true;
          const auto scratch = core::lacc_dist(
              accumulated, 4, sim::MachineModel::local(), options.lacc);
          ASSERT_EQ(engine.labels(),
                    core::normalize_labels(scratch.cc.parent))
              << "sparse=" << sparse << " hypercube=" << hypercube
              << " cyclic=" << cyclic << " epoch=" << engine.epoch();
        }
        EXPECT_TRUE(saw_incremental);
        EXPECT_TRUE(saw_rebuild);
      }
    }
  }
}

/// The rebuild path must honor the sampling pre-pass: with
/// `sampling_prepass` on, the bulk first batch's rebuild and the
/// incremental epochs after it must stay bit-identical to a from-scratch
/// prepass-on lacc_dist on the accumulated graph and to union-find truth.
TEST(StreamPrepass, RebuildPathWithPrepassStaysBitIdentical) {
  const auto batches = rebuild_then_incremental_batches(/*seed=*/29);
  const VertexId n = batches.front().n;
  StreamOptions options;
  options.lacc.sampling_prepass = true;

  StreamEngine engine(n, 4, sim::MachineModel::local(), options);
  graph::EdgeList accumulated(n);
  bool saw_incremental = false, saw_rebuild = false;
  for (const auto& batch : batches) {
    accumulated.edges.insert(accumulated.edges.end(), batch.edges.begin(),
                             batch.edges.end());
    engine.ingest(batch);
    const auto st = engine.advance_epoch();
    (st.full_rebuild ? saw_rebuild : saw_incremental) = true;

    const auto truth = baselines::union_find_cc(accumulated);
    ASSERT_EQ(engine.labels(), core::normalize_labels(truth.parent))
        << "epoch=" << engine.epoch();
    const auto scratch = core::lacc_dist(accumulated, 4,
                                         sim::MachineModel::local(),
                                         options.lacc);
    EXPECT_TRUE(scratch.cc.prepass.ran);
    ASSERT_EQ(engine.labels(), core::normalize_labels(scratch.cc.parent))
        << "epoch=" << engine.epoch();
  }
  EXPECT_TRUE(saw_incremental);
  EXPECT_TRUE(saw_rebuild);
}

/// Hook rounds are O(log n).  An id-sorted path fed as one batch hooks each
/// vertex onto its predecessor, a chain of 4,095 links; hooking and then
/// shortcutting in every round halves it, so the rounds stay within
/// 2·⌈log2 4096⌉.
TEST(StreamRounds, IdSortedPathConvergesInLogRounds) {
  const auto el =
      graph::disjoint_union(graph::path(4096), graph::empty_graph(36864));
  const auto truth =
      core::normalize_labels(baselines::union_find_cc(el).parent);
  for (const int ranks : {1, 4, 9}) {
    StreamOptions options;
    options.lacc.max_iterations = 64;
    StreamEngine engine(el.n, ranks, sim::MachineModel::local(), options);
    engine.ingest(el);
    const auto st = engine.advance_epoch();
    EXPECT_FALSE(st.full_rebuild);
    EXPECT_LE(st.iterations, 24) << "ranks=" << ranks;
    ASSERT_EQ(engine.labels(), truth) << "ranks=" << ranks;
  }
}

}  // namespace
}  // namespace lacc::stream
