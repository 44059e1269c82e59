// StreamEngine unit tests: epoch bookkeeping, versioned queries, the
// incremental/rebuild choice, compaction, and error handling.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "baselines/union_find.hpp"
#include "core/lacc_dist.hpp"
#include "core/options.hpp"
#include "graph/generators.hpp"
#include "stream/engine.hpp"
#include "support/error.hpp"

namespace lacc::stream {
namespace {

graph::EdgeList single_edge(VertexId n, VertexId u, VertexId v) {
  graph::EdgeList el(n);
  el.add(u, v);
  return el;
}

TEST(StreamEngine, StartsWithSingletonComponents) {
  StreamEngine engine(10, 4, sim::MachineModel::local());
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(engine.num_components(), 10u);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(engine.component_of(v), v);
}

TEST(StreamEngine, MergesAcrossEpochsAndVersionsQueries) {
  StreamEngine engine(8, 4, sim::MachineModel::local());

  engine.ingest(single_edge(8, 0, 1));
  const auto e1 = engine.advance_epoch();
  EXPECT_EQ(e1.epoch, 1u);
  EXPECT_EQ(e1.cross_edges, 1u);
  EXPECT_EQ(e1.merges, 1u);
  EXPECT_EQ(engine.num_components(), 7u);
  EXPECT_EQ(engine.component_of(1), 0u);

  engine.ingest(single_edge(8, 2, 3));
  const auto e2 = engine.advance_epoch();
  EXPECT_EQ(e2.components, 6u);
  EXPECT_EQ(engine.component_of(3), 2u);

  // Bridge the two pairs: labels collapse onto the minimum vertex id.
  engine.ingest(single_edge(8, 1, 2));
  engine.advance_epoch();
  EXPECT_EQ(engine.num_components(), 5u);
  for (const VertexId v : {0u, 1u, 2u, 3u}) EXPECT_EQ(engine.component_of(v), 0u);

  // Time travel: the epoch-versioned view reproduces every snapshot.
  const std::array<VertexId, 4> vs = {0, 1, 2, 3};
  EXPECT_EQ(engine.query_at(0, vs), (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(engine.query_at(1, vs), (std::vector<VertexId>{0, 0, 2, 3}));
  EXPECT_EQ(engine.query_at(2, vs), (std::vector<VertexId>{0, 0, 2, 2}));
  EXPECT_EQ(engine.query_at(3, vs), (std::vector<VertexId>{0, 0, 0, 0}));
  EXPECT_EQ(engine.query(vs), engine.query_at(3, vs));
}

TEST(StreamEngine, EmptyEpochChangesNothing) {
  StreamEngine engine(6, 1, sim::MachineModel::local());
  engine.ingest(single_edge(6, 4, 5));
  engine.advance_epoch();
  const auto labels = engine.labels();
  const auto st = engine.advance_epoch();
  EXPECT_EQ(st.cross_edges, 0u);
  EXPECT_EQ(st.merges, 0u);
  EXPECT_EQ(st.relabeled_vertices, 0u);
  EXPECT_FALSE(st.full_rebuild);
  EXPECT_EQ(engine.labels(), labels);
}

TEST(StreamEngine, DuplicateAndInternalEdgesAreFiltered) {
  StreamEngine engine(8, 4, sim::MachineModel::local());
  engine.ingest(single_edge(8, 0, 1));
  engine.advance_epoch();
  // Re-inserting the same edge (plus a self-loop) crosses nothing.
  graph::EdgeList batch(8);
  batch.add(1, 0);
  batch.add(3, 3);
  const auto stats = engine.ingest(batch);
  EXPECT_EQ(stats.self_loops, 1u);
  EXPECT_EQ(stats.kept, 1u);
  const auto st = engine.advance_epoch();
  EXPECT_EQ(st.cross_edges, 0u);
  EXPECT_EQ(st.merges, 0u);
}

/// The first `count` distinct edges of a dense clustered graph on n = 40.
/// On the empty graph every distinct edge is a cross pair, so one batch of
/// them carries exactly `count` cross pairs.
graph::EdgeList dense_prefix(std::size_t count) {
  auto el = graph::clustered_components(40, 5, 10.0, /*seed=*/2);
  graph::canonicalize(el);
  EXPECT_GT(el.edges.size(), count);
  el.edges.resize(count);
  return el;
}

/// Runs one batch of `count` cross pairs with compaction otherwise off, so
/// `compacted` reports the rebuild's forced compaction alone.
EpochStats run_dense_batch(std::size_t count) {
  StreamOptions options;
  options.compaction_factor = 1e9;
  StreamEngine engine(40, 4, sim::MachineModel::local(), options);
  const auto el = dense_prefix(count);
  engine.ingest(el);
  const auto st = engine.advance_epoch();
  EXPECT_EQ(st.cross_edges, count);
  const auto truth = baselines::union_find_cc(el);
  EXPECT_EQ(engine.labels(), core::normalize_labels(truth.parent));
  return st;
}

TEST(StreamEngine, MoreThanTwoNCrossPairsForceFullRebuild) {
  const auto st = run_dense_batch(2 * 40 + 1);
  EXPECT_TRUE(st.full_rebuild);
  EXPECT_TRUE(st.compacted);  // the rebuild path compacts first
  EXPECT_EQ(st.delta_nnz, 0u);
}

TEST(StreamEngine, AtMostTwoNCrossPairsStayIncremental) {
  const auto st = run_dense_batch(2 * 40);
  EXPECT_FALSE(st.full_rebuild);
  EXPECT_FALSE(st.compacted);
  EXPECT_EQ(st.delta_nnz, 2u * 2 * 40);  // both directions of every edge
}

TEST(StreamEngine, CompactionPolicyControlsDeltaResidency) {
  // A huge factor keeps the delta resident across incremental epochs; a
  // zero factor folds it into the base every epoch.
  for (const double factor : {1e9, 0.0}) {
    StreamOptions options;
    options.compaction_factor = factor;
    StreamEngine engine(30, 1, sim::MachineModel::local(), options);
    engine.ingest(single_edge(30, 0, 1));
    const auto st = engine.advance_epoch();
    EXPECT_FALSE(st.full_rebuild);
    if (factor == 0.0) {
      EXPECT_TRUE(st.compacted);
      EXPECT_EQ(st.delta_nnz, 0u);
    } else {
      EXPECT_FALSE(st.compacted);
      EXPECT_EQ(st.delta_nnz, 2u);  // the symmetrized pair stays in the runs
    }
  }
}

TEST(StreamEngine, IncrementalLabelsBitIdenticalToFromScratchLacc) {
  const VertexId n = 120;
  StreamEngine engine(n, 4, sim::MachineModel::local());
  graph::EdgeList accumulated(n);
  const auto full = graph::clustered_components(n, 8, 4.0, /*seed=*/9);
  const std::size_t batch = 1 + full.edges.size() / 5;
  for (std::size_t at = 0; at < full.edges.size(); at += batch) {
    graph::EdgeList slice(n);
    for (std::size_t k = at; k < std::min(at + batch, full.edges.size()); ++k) {
      slice.edges.push_back(full.edges[k]);
      accumulated.edges.push_back(full.edges[k]);
    }
    engine.ingest(slice);
    engine.advance_epoch();
    const auto scratch =
        core::lacc_dist(accumulated, 4, sim::MachineModel::local());
    EXPECT_EQ(engine.labels(), core::normalize_labels(scratch.cc.parent));
  }
  EXPECT_GT(engine.total_modeled_seconds(), 0.0);
  EXPECT_EQ(engine.history().size(), engine.epoch());
}

TEST(StreamEngine, ModeledSecondsAccumulateAndStatsExposed) {
  StreamEngine engine(20, 4, sim::MachineModel::local());
  engine.ingest(single_edge(20, 3, 9));
  const auto st = engine.advance_epoch();
  EXPECT_GT(st.ingest_modeled_seconds, 0.0);
  EXPECT_GT(st.advance_modeled_seconds, 0.0);
  EXPECT_DOUBLE_EQ(engine.total_modeled_seconds(), st.modeled_seconds());
  EXPECT_EQ(engine.last_epoch_spmd().stats.size(), 4u);
}

TEST(StreamEngine, RejectsBadArguments) {
  EXPECT_THROW(StreamEngine(10, 6, sim::MachineModel::local()), Error);
  StreamEngine engine(10, 4, sim::MachineModel::local());
  EXPECT_THROW(engine.ingest(single_edge(11, 0, 1)), Error);
  const std::array<VertexId, 1> v = {0};
  EXPECT_THROW(engine.query_at(1, v), Error);
  EXPECT_THROW(engine.component_of(10), Error);
}

TEST(StreamEngine, QueriesBeforeFirstAdvanceSeeTheEmptyGraph) {
  // Regression: querying epoch 0 before any advance_epoch must answer (every
  // vertex its own component), not assert.
  StreamEngine engine(5, 1, sim::MachineModel::local());
  const std::array<VertexId, 3> vs = {0, 2, 4};
  EXPECT_EQ(engine.query(vs), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(engine.query_at(0, vs), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(engine.component_of(4), 4u);
}

TEST(StreamEngine, QueryErrorsAreCleanUserMessages) {
  // Regression: query errors must read as input diagnostics the CLI can
  // print verbatim, not as LACC_CHECK invariant failures.
  StreamEngine engine(10, 1, sim::MachineModel::local());
  const std::array<VertexId, 1> vs = {0};
  try {
    engine.query_at(3, vs);
    FAIL() << "future epoch accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("epoch 3 has not happened yet"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("LACC_CHECK"), std::string::npos) << what;
  }
  try {
    engine.component_of(10);
    FAIL() << "out-of-range vertex accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vertex 10 out of range [0, 10)"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("LACC_CHECK"), std::string::npos) << what;
  }
  const std::array<VertexId, 1> bad = {10};
  EXPECT_THROW(engine.query_at(0, bad), Error);
  EXPECT_THROW(engine.query(bad), Error);
}

}  // namespace
}  // namespace lacc::stream
