// GraphView producer equivalence: a from-scratch build, a stream-engine
// freeze, and a serve snapshot of the same accumulated graph must hand the
// kernels the identical structure — same vertex count, same stored entries,
// and bit-identical kernel results.  Block contents are compared through
// kernel outputs rather than raw arrays because DCSC columns are fenced to
// the owning virtual rank.
#include "kernel/view.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "kernel/kernels.hpp"
#include "kernel/reference.hpp"
#include "serve/server.hpp"
#include "sim/machine.hpp"
#include "stream/engine.hpp"
#include "support/error.hpp"

namespace lacc::kernel {
namespace {

constexpr VertexId kN = 96;

graph::EdgeList test_graph() {
  return graph::erdos_renyi(kN, 220, /*seed=*/19);
}

/// Stream-engine producer: `el` split into three epochs so the freeze
/// exercises base + delta folding, not just the warm-load path.
GraphView stream_freeze(const graph::EdgeList& el, int nranks) {
  stream::StreamEngine engine(el.n, nranks, sim::MachineModel::edison());
  const std::size_t third = el.edges.size() / 3;
  for (std::size_t at = 0; at < el.edges.size(); at += third) {
    graph::EdgeList slice(el.n);
    slice.edges.assign(
        el.edges.begin() + static_cast<std::ptrdiff_t>(at),
        el.edges.begin() + static_cast<std::ptrdiff_t>(
                               std::min(at + third, el.edges.size())));
    engine.ingest(slice);
    engine.advance_epoch();
  }
  return engine.freeze_view();
}

TEST(GraphView, FromEdgesBasicProperties) {
  const auto el = test_graph();
  const auto view = GraphView::from_edges(el, 4, sim::MachineModel::edison());
  EXPECT_EQ(view.n(), kN);
  EXPECT_EQ(view.nranks(), 4);
  EXPECT_EQ(view.epoch(), 0u);
  EXPECT_GT(view.global_nnz(), 0u);
  // The construction session is a real SPMD run with a modeled cost.
  EXPECT_GT(view.build_modeled_seconds(), 0.0);
}

TEST(GraphView, StreamFreezeMatchesFromScratch) {
  const auto el = test_graph();
  for (const int nranks : {1, 4, 9}) {
    const auto fresh =
        GraphView::from_edges(el, nranks, sim::MachineModel::edison());
    const GraphView frozen = stream_freeze(el, nranks);

    EXPECT_EQ(frozen.n(), fresh.n());
    EXPECT_EQ(frozen.nranks(), fresh.nranks());
    EXPECT_EQ(frozen.global_nnz(), fresh.global_nnz());
    EXPECT_GT(frozen.epoch(), 0u);

    // Identical structure => bit-identical kernel answers.
    const auto b0 = bfs(fresh, 0);
    const auto b1 = bfs(frozen, 0);
    EXPECT_EQ(b0.dist, b1.dist);
    EXPECT_EQ(b0.parent, b1.parent);
    EXPECT_EQ(triangle_count(fresh).triangles,
              triangle_count(frozen).triangles);
  }
}

TEST(GraphView, ServeSnapshotMatchesFromScratch) {
  const auto el = test_graph();
  serve::ServeOptions options;
  options.batch_max_edges = 64;
  options.enable_kernel_queries = true;
  serve::Server server(kN, 4, sim::MachineModel::edison(), options);
  for (const graph::Edge& e : el.edges)
    ASSERT_EQ(server.insert_edge(e.u, e.v).status, serve::ServeStatus::kOk);
  server.flush();

  const auto snap = server.snapshot();
  ASSERT_NE(snap->view(), nullptr);
  const GraphView& served = *snap->view();
  const auto fresh =
      GraphView::from_edges(el, 4, sim::MachineModel::edison());
  EXPECT_EQ(served.n(), fresh.n());
  EXPECT_EQ(served.global_nnz(), fresh.global_nnz());
  EXPECT_EQ(bfs(served, 0).dist, bfs(fresh, 0).dist);
}

TEST(GraphView, ProducersAgreeOnPermutedRmat) {
  // Permuting ids scatters RMAT's hubs, so triangle counting's (degree, id)
  // orientation disagrees with id order almost everywhere.
  const auto el =
      graph::permute_vertices(graph::rmat(8, 1500, /*seed=*/23), /*seed=*/4);
  const auto truth = reference_triangle_count(el);
  EXPECT_GT(truth, 0u);
  for (const int nranks : {1, 4, 9}) {
    const auto fresh =
        GraphView::from_edges(el, nranks, sim::MachineModel::edison());
    const GraphView frozen = stream_freeze(el, nranks);

    serve::ServeOptions options;
    options.batch_max_edges = 128;
    options.enable_kernel_queries = true;
    serve::Server server(el.n, nranks, sim::MachineModel::edison(), options);
    for (const graph::Edge& e : el.edges)
      ASSERT_EQ(server.insert_edge(e.u, e.v).status, serve::ServeStatus::kOk);
    server.flush();
    const auto snap = server.snapshot();
    ASSERT_NE(snap->view(), nullptr);

    for (const GraphView* view : {&fresh, &frozen, snap->view().get()}) {
      EXPECT_EQ(view->global_nnz(), fresh.global_nnz());
      EXPECT_EQ(triangle_count(*view).triangles, truth) << "nranks=" << nranks;
      EXPECT_EQ(bfs(*view, 0).dist, bfs(fresh, 0).dist);
    }
  }
}

TEST(GraphView, FreezeWithoutResidentDeltaSharesBlocks) {
  const auto el = test_graph();
  stream::StreamEngine engine(kN, 4, sim::MachineModel::edison());
  engine.ingest(el);
  engine.advance_epoch();
  const GraphView frozen = engine.freeze_view();
  // Nothing uncompacted: the freeze shares every base block and pays no
  // modeled merge cost.
  EXPECT_EQ(frozen.build_modeled_seconds(), 0.0);
}

TEST(GraphView, ViewOutlivesItsEngine) {
  const auto el = test_graph();
  std::unique_ptr<GraphView> view;
  {
    stream::StreamEngine engine(kN, 4, sim::MachineModel::edison());
    engine.ingest(el);
    engine.advance_epoch();
    view = std::make_unique<GraphView>(engine.freeze_view());
  }
  // Blocks are shared_ptr-held: kernels still run after the engine dies.
  const auto fresh =
      GraphView::from_edges(el, 4, sim::MachineModel::edison());
  EXPECT_EQ(bfs(*view, 0).dist, bfs(fresh, 0).dist);
}

TEST(GraphView, BlockCountMustMatchRanks) {
  EXPECT_THROW(GraphView(8, 4, sim::MachineModel::edison(), 0, {}), Error);
}

}  // namespace
}  // namespace lacc::kernel
