// stream-durable: bulk write-only ingest through stream::StreamEngine.
//
// Set-up loads the first half of the shuffled eukarya edges as one epoch
// into two engines, one durable (fresh data directory, fsync per epoch) and
// one memory-only.  Shuffled edges merge components fast at first, so most
// early epochs fall back to a full recompute; after about half the stream
// the graph is mature and epochs are steady, which is the regime measured.
// The timed phase replays the rest in fixed batches, one epoch per batch,
// through the durable engine, then the same batches through the memory
// engine, then reopens the durable directory to time recovery.  The batch
// count follows from --seconds, not from the clock, so every run of a seed
// applies the same epochs (and compacts at the same points) however fast
// the host is.
// The durable arm is the measured op; the memory arm isolates the durable
// layer's cost from outside, and both must agree bit for bit.  No client
// threads run, so time goes to ingest/advance, the WAL, run files and
// compaction.
#include <filesystem>
#include <string>
#include <unistd.h>

#include "percentile.hpp"
#include "stream/engine.hpp"
#include "workload.hpp"

namespace lacc_bench {
namespace {

using namespace lacc;

/// Durable epochs per second of --seconds: at about 1.5 ms each on a 4-core
/// host the durable arm takes half the phase, and the memory arm replays
/// the same batches in half of that.
constexpr double kEpochsPerSecond = 350;

struct Arm {
  std::vector<stream::EpochStats> history;
  double wall_seconds = 0;
};

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(bool smoke)
      : scale_(smoke ? 0.1 : 4.0), batch_edges_(smoke ? 32 : 128) {}

  ~StreamWorkload() override {
    durable_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove(dir_.parent_path(), ec);  // only if empty
  }

  void setup(std::uint64_t seed) override {
    durable_.reset();
    memory_.reset();
    const auto t0 = Clock::now();
    stream_ = shuffled(eukarya(scale_, seed), seed);
    gen_seconds = seconds_since(t0);
    warm_edges_ = stream_.edges.size() / 2;

    // Inside the working directory: the benchmark writes nowhere else.
    dir_ = std::filesystem::current_path() / ".lacc_bench_tmp" /
           ("stream-durable-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    durable_options_.durable.dir = dir_.string();
    durable_options_.durable.fsync = stream::durable::FsyncPolicy::kPerEpoch;
    durable_ = std::make_unique<stream::StreamEngine>(
        stream_.n, kRanks, machine(), durable_options_);
    memory_ =
        std::make_unique<stream::StreamEngine>(stream_.n, kRanks, machine());
    for (stream::StreamEngine* engine : {durable_.get(), memory_.get()}) {
      engine->ingest(slice(0, warm_edges_));
      engine->advance_epoch();
    }
  }

  Phase run(double seconds, Tracer* tracer, Report* layers) override {
    ThreadTrace* trace = tracer != nullptr ? tracer->thread("client") : nullptr;
    Phase phase;
    std::vector<double> ingest_ms, advance_ms;
    Arm durable;
    {
      Span arm(trace, "bench.durable_arm");
      const std::size_t batches = std::min(
          num_batches(), static_cast<std::size_t>(seconds * kEpochsPerSecond));
      const auto start = Clock::now();
      const double cpu0 = cpu_seconds();
      for (std::size_t b = 0; b < batches; ++b) {
        const auto t0 = Clock::now();
        {
          Span span(trace, "stream.ingest", b);
          durable_->ingest(batch(b));
        }
        const auto t1 = Clock::now();
        {
          Span span(trace, "stream.advance", b);
          durable.history.push_back(durable_->advance_epoch());
        }
        const auto t2 = Clock::now();
        using Ms = std::chrono::duration<double, std::milli>;
        ingest_ms.push_back(Ms(t1 - t0).count());
        advance_ms.push_back(Ms(t2 - t1).count());
        phase.add_op(Ms(t2 - t0).count(),
                     std::chrono::duration<double>(t0 - start).count());
        phase.modeled_ms.push_back(
            durable.history.back().modeled_seconds() * 1e3);
        ++phase.attempted;
      }
      durable.wall_seconds = seconds_since(start);
      phase.cpu_seconds = cpu_seconds() - cpu0;
    }
    const std::size_t batches = durable.history.size();
    const stream::durable::DurabilityStats io = durable_->durability_stats();

    Arm memory;
    {
      Span arm(trace, "bench.memory_arm");
      const auto start = Clock::now();
      for (std::size_t b = 0; b < batches; ++b) {
        {
          Span span(trace, "stream.ingest", b);
          memory_->ingest(batch(b));
        }
        Span span(trace, "stream.advance", b);
        memory.history.push_back(memory_->advance_epoch());
      }
      memory.wall_seconds = seconds_since(start);
    }
    check(durable, memory);

    const std::vector<VertexId> labels = durable_->labels();
    const std::uint64_t epoch = durable_->epoch();
    durable_.reset();
    double recovery_seconds = 0;
    {
      Span span(trace, "durable.recover");
      const auto t0 = Clock::now();
      const stream::StreamEngine reopened(stream_.n, kRanks, machine(),
                                          durable_options_);
      recovery_seconds = seconds_since(t0);
      if (!reopened.recovered() || reopened.epoch() != epoch ||
          reopened.labels() != labels)
        throw Mismatch("recovered engine differs from the durable arm");
    }
    memory_.reset();
    std::filesystem::remove_all(dir_);

    if (layers != nullptr) {
      double modeled = 0;
      std::uint64_t rebuilds = 0, compactions = 0, cross = 0, edges = 0,
                    relabeled = 0;
      for (const stream::EpochStats& st : durable.history) {
        modeled += st.modeled_seconds();
        rebuilds += st.full_rebuild ? 1 : 0;
        compactions += st.compacted ? 1 : 0;
        cross += st.cross_edges;
        edges += st.batch_edges;
        relabeled += st.relabeled_vertices;
      }
      const auto epochs = static_cast<double>(batches);
      layers->set("stream.ingest_ms_p50", median(ingest_ms));
      layers->set("stream.advance_ms_p50", median(advance_ms));
      layers->set("stream.advance_ms_p99", percentile(advance_ms, 0.99));
      layers->set("stream.rebuild_share",
                  static_cast<double>(rebuilds) / epochs);
      layers->set("stream.cross_share",
                  edges ? static_cast<double>(cross) /
                              static_cast<double>(edges)
                        : 0);
      layers->set("stream.relabeled_per_epoch",
                  static_cast<double>(relabeled) / epochs);
      layers->set("stream.compactions", static_cast<double>(compactions));
      layers->set("stream.modeled_us_per_epoch", modeled / epochs * 1e6);
      layers->set("stream.wall_over_modeled", durable.wall_seconds / modeled);
      layers->set("durable.overhead_ms",
                  (durable.wall_seconds - memory.wall_seconds) * 1e3);
      layers->set("durable.fsyncs", static_cast<double>(io.io.fsyncs));
      layers->set("durable.wal_bytes", static_cast<double>(io.io.wal_bytes));
      layers->set("durable.run_file_bytes",
                  static_cast<double>(io.io.run_file_bytes));
      layers->set("durable.level_compactions",
                  static_cast<double>(io.io.level_compactions));
      layers->set("durable.recovery_ms", recovery_seconds * 1e3);
    }
    return phase;
  }

 private:
  std::size_t num_batches() const {
    return (stream_.edges.size() - warm_edges_ + batch_edges_ - 1) /
           batch_edges_;
  }

  graph::EdgeList slice(std::size_t lo, std::size_t hi) const {
    graph::EdgeList el(stream_.n);
    hi = std::min(hi, stream_.edges.size());
    el.edges.assign(stream_.edges.begin() + static_cast<std::ptrdiff_t>(lo),
                    stream_.edges.begin() + static_cast<std::ptrdiff_t>(hi));
    return el;
  }

  /// Batch b of the timed stream (after the warm half).
  graph::EdgeList batch(std::size_t b) const {
    const std::size_t lo = warm_edges_ + b * batch_edges_;
    return slice(lo, lo + batch_edges_);
  }

  void check(const Arm& durable, const Arm& memory) const {
    if (durable_->labels() != memory_->labels())
      throw Mismatch("durable-arm labels differ from the memory arm");
    for (std::size_t e = 0; e < durable.history.size(); ++e)
      if (durable.history[e].ingest_modeled_seconds !=
              memory.history[e].ingest_modeled_seconds ||
          durable.history[e].advance_modeled_seconds !=
              memory.history[e].advance_modeled_seconds)
        throw Mismatch("durable-arm modeled seconds differ at timed epoch " +
                       std::to_string(e + 1));
    const std::size_t applied =
        warm_edges_ + durable.history.size() * batch_edges_;
    if (durable_->labels() != truth_labels(slice(0, applied)))
      throw Mismatch("stream labels differ from union-find");
  }

  const double scale_;
  const std::size_t batch_edges_;
  graph::EdgeList stream_;
  std::size_t warm_edges_ = 0;
  std::filesystem::path dir_;
  stream::StreamOptions durable_options_;
  std::unique_ptr<stream::StreamEngine> durable_, memory_;
};

}  // namespace

std::unique_ptr<Workload> make_stream(bool smoke) {
  return std::make_unique<StreamWorkload>(smoke);
}

}  // namespace lacc_bench
