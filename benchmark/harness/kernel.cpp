// kernel-query: read-only analytics on a frozen view.
//
// A serve::Server with kernel queries enabled is loaded with an RMAT graph
// and flushed during set-up; then one closed-loop client runs rounds of
// bfs_dist (random source), pagerank_topk(10) and triangle_count().  The
// dist semiring kernels (mxv_plus, SUMMA broadcasts) do the work and
// nothing is ingested, so stream or commit-path changes should not move it.
#include <array>
#include <cmath>

#include "graph/generators.hpp"
#include "kernel/kernels.hpp"
#include "kernel/reference.hpp"
#include "percentile.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace lacc_bench {
namespace {

using namespace lacc;

constexpr std::size_t kTopK = 10;
constexpr double kPageRankTolerance = 1e-8;
/// PageRank runs a fixed number of iterations (tolerance 0), as LDBC
/// Graphalytics does: converging to 1e-12 takes 46 to 113 iterations
/// depending on the seed's graph, which would swamp every other change.
constexpr int kPageRankIterations = 50;
constexpr const char* kKernels[] = {"bfs", "pagerank", "tc"};

class KernelWorkload final : public Workload {
 public:
  explicit KernelWorkload(bool smoke)
      : rmat_scale_(smoke ? 10 : 14), edges_(smoke ? 8192 : 131072) {}

  void setup(std::uint64_t seed) override {
    server_.reset();
    const auto t0 = Clock::now();
    graph_ = graph::rmat(rmat_scale_, edges_, seed);
    gen_seconds = seconds_since(t0);
    seed_ = seed;
    serve::ServeOptions options;
    options.enable_kernel_queries = true;
    options.kernel_options.tolerance = 0;
    options.kernel_options.max_iterations = kPageRankIterations;
    // Load the whole graph as one epoch.
    options.batch_max_edges = graph_.edges.size();
    options.queue_capacity = graph_.edges.size();
    server_ = std::make_unique<serve::Server>(graph_.n, kRanks, machine(),
                                              options);
    for (const graph::Edge& e : graph_.edges) server_->insert_edge(e.u, e.v);
    server_->flush();
    pagerank_ref_ = kernel::reference_pagerank(
        graph_, options.kernel_options.damping, 0, kPageRankIterations);
    top_ref_ = kernel::top_k_ranks(pagerank_ref_, kTopK);
    triangles_ref_ = kernel::reference_triangle_count(graph_);
    Xoshiro256 rng(seed);
    round(rng, nullptr, nullptr);  // warm-up
  }

  Phase run(double seconds, Tracer* tracer, Report* layers) override {
    ThreadTrace* trace = tracer != nullptr ? tracer->thread("client") : nullptr;
    Xoshiro256 rng(seed_ ^ 0x6b65726e656c0000ull);
    std::array<std::vector<double>, 3> wall_ms, overhead_us;
    Phase phase;
    const auto start = Clock::now();
    const double cpu0 = cpu_seconds();
    do {
      const auto t0 = Clock::now();
      const Round r = round(rng, trace, &phase);
      phase.add_op((r.wall[0] + r.wall[1] + r.wall[2]) * 1e3,
                   std::chrono::duration<double>(t0 - start).count());
      phase.modeled_ms.push_back((r.stats[0].modeled_seconds +
                                  r.stats[1].modeled_seconds +
                                  r.stats[2].modeled_seconds) * 1e3);
      for (std::size_t k = 0; k < 3; ++k) {
        wall_ms[k].push_back(r.wall[k] * 1e3);
        overhead_us[k].push_back((r.wall[k] - r.stats[k].wall_seconds) * 1e6);
      }
      if (layers != nullptr && phase.op_ms.size() == 1)
        for (std::size_t k = 0; k < 3; ++k) {
          const std::string prefix = std::string("kernel.") + kKernels[k];
          const kernel::KernelStats& st = r.stats[k];
          layers->set(prefix + ".modeled_us", st.modeled_seconds * 1e6);
          layers->set(prefix + ".rounds", static_cast<double>(st.rounds));
          layers->set(prefix + ".words", static_cast<double>(st.words_moved));
        }
    } while (seconds_since(start) < seconds);
    phase.cpu_seconds = cpu_seconds() - cpu0;
    if (layers != nullptr)
      for (std::size_t k = 0; k < 3; ++k) {
        const std::string prefix = std::string("kernel.") + kKernels[k];
        layers->set(prefix + ".wall_ms_p50", median(wall_ms[k]));
        layers->set(prefix + ".serve_overhead_us", median(overhead_us[k]));
      }
    return phase;
  }

 private:
  struct Round {
    std::array<double, 3> wall{};  // endpoint wall seconds: bfs, pagerank, tc
    std::array<kernel::KernelStats, 3> stats;
  };

  /// One bfs + pagerank + triangle round, every answer checked against the
  /// serial references (checks run between the timed calls).
  Round round(Xoshiro256& rng, ThreadTrace* trace, Phase* phase) {
    // A random edge's endpoint: never an isolated vertex.
    const VertexId source = graph_.edges[rng.below(graph_.edges.size())].u;
    Round r;
    Span span(trace, "bench.round", phase != nullptr ? phase->attempted : 0);

    auto t0 = Clock::now();
    serve::BfsQueryResult bfs;
    {
      Span s(trace, "kernel.bfs");
      bfs = server_->bfs_dist(source);
    }
    r.wall[0] = seconds_since(t0);
    t0 = Clock::now();
    serve::PageRankQueryResult pr;
    {
      Span s(trace, "kernel.pagerank");
      pr = server_->pagerank_topk(kTopK);
    }
    r.wall[1] = seconds_since(t0);
    t0 = Clock::now();
    serve::TriangleQueryResult tc;
    {
      Span s(trace, "kernel.tc");
      tc = server_->triangle_count();
    }
    r.wall[2] = seconds_since(t0);

    if (phase != nullptr) {
      phase->attempted += 3;
      for (const serve::ServeStatus st : {bfs.status, pr.status, tc.status})
        if (st != serve::ServeStatus::kOk) ++phase->failed;
    }
    r.stats = {bfs.result.stats, pr.stats, tc.stats};
    check(source, bfs, pr, tc);
    return r;
  }

  void check(VertexId source, const serve::BfsQueryResult& bfs,
             const serve::PageRankQueryResult& pr,
             const serve::TriangleQueryResult& tc) const {
    if (bfs.status == serve::ServeStatus::kOk &&
        bfs.result.dist != kernel::reference_bfs_distances(graph_, source))
      throw Mismatch("bfs distances differ from the reference");
    if (tc.status == serve::ServeStatus::kOk && tc.triangles != triangles_ref_)
      throw Mismatch("triangle count differs from the reference");
    if (pr.status != serve::ServeStatus::kOk) return;
    if (pr.top.size() != top_ref_.size())
      throw Mismatch("pagerank top-k has the wrong size");
    for (std::size_t i = 0; i < pr.top.size(); ++i)
      if (std::abs(pr.top[i].rank - top_ref_[i].rank) > kPageRankTolerance ||
          std::abs(pr.top[i].rank - pagerank_ref_[pr.top[i].v]) >
              kPageRankTolerance)
        throw Mismatch("pagerank differs from the reference by more than 1e-8");
  }

  const int rmat_scale_;
  const EdgeId edges_;
  std::uint64_t seed_ = 0;
  graph::EdgeList graph_;
  std::unique_ptr<serve::Server> server_;
  std::vector<double> pagerank_ref_;
  std::vector<kernel::RankEntry> top_ref_;
  std::uint64_t triangles_ref_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_kernel(bool smoke) {
  return std::make_unique<KernelWorkload>(smoke);
}

}  // namespace lacc_bench
