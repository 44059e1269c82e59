#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <sys/resource.h>

#include "baselines/union_find.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace lacc_bench {

using namespace lacc;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cc-protein", "cc-sparse", "stream-durable",
      "serve-rw",   "shard-fanout", "kernel-query"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, bool smoke) {
  if (name == "cc-protein") return make_cc(/*sparse=*/false, smoke);
  if (name == "cc-sparse") return make_cc(/*sparse=*/true, smoke);
  if (name == "stream-durable") return make_stream(smoke);
  if (name == "serve-rw") return make_serve(/*sharded=*/false, smoke);
  if (name == "shard-fanout") return make_serve(/*sharded=*/true, smoke);
  if (name == "kernel-query") return make_kernel(smoke);
  return nullptr;
}

namespace {

/// graph/testproblems.cpp's vertex-count scaling.
VertexId scaled(double scale, VertexId base) {
  const double v = std::round(static_cast<double>(base) * scale);
  return v < 2 ? 2 : static_cast<VertexId>(v);
}

}  // namespace

graph::EdgeList eukarya(double scale, std::uint64_t seed) {
  const VertexId n = scaled(scale, 24576);
  return graph::permute_vertices(
      graph::clustered_components(n, n / 20, 22.0, seed + 2), seed + 777);
}

graph::EdgeList m3(double scale, std::uint64_t seed) {
  return graph::permute_vertices(
      graph::path_forest(scaled(scale, 65536), 70, seed + 4), seed + 777);
}

graph::EdgeList shuffled(graph::EdgeList el, std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x73747265616d0000ull);
  for (std::size_t i = el.edges.size(); i > 1; --i)
    std::swap(el.edges[i - 1], el.edges[rng.below(i)]);
  return el;
}

std::vector<VertexId> truth_labels(const graph::EdgeList& el) {
  return core::normalize_labels(baselines::union_find_cc(el).parent);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace lacc_bench
