// serve-rw and shard-fanout: the write path users feel, with reads beside.
//
// Three client threads share one process with the system under test:
//   writer  open loop: the shuffled eukarya edges at a fixed rate, each
//           write due at a fixed time whether or not the system keeps up;
//   waiter  times each write from its due time until a ticketed read sees
//           it, and checks read-your-writes on every write;
//   reader  open loop: kReadRate reads in 1 ms ticks, alternating
//           component_of / same_component, every kPinnedEvery-th read a
//           pinned component_at.
// serve-rw drives one serve::Server with default options: epochs are tiny,
// so session spawn, label gather/diff and snapshot publication dominate.
// shard-fanout drives a shard::Router (2 shards x 2 by-copy replicas,
// reconcile every 2 ms) with the same stream and reader; a write is
// visible once a ticketed read on a replica sees it, which adds the
// quotient reconcile and the replica fan-out to serve-rw's path.  Its
// write rate is lower: every shard runs an epoch per 2 ms window whatever
// the rate, and two shards plus the reconcile saturate a 4-core host well
// below serve-rw's rate.
//
// Set-up loads the first kWarmShare of the stream and flushes, so the
// timed writes land on a mature graph (see stream.cpp: on a young graph
// nearly every epoch is a full recompute, which no 4-core host sustains at
// these rates; a shard sees only its owned-owned edges, so its graph
// matures later than the whole).  To load that share in a few epochs the
// batch cap is raised from its default of 1024 edges; in the timed phase
// batches close on the 2 ms window at about 50 edges, far below either
// cap.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <tuple>

#include "percentile.hpp"
#include "serve/server.hpp"
#include "shard/router.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace lacc_bench {
namespace {

using namespace lacc;

constexpr double kServeWriteRate = 25000;  // edges/s
constexpr double kShardWriteRate = 10000;  // edges/s
constexpr double kReadRate = 100000;       // reads/s
constexpr std::uint64_t kPinnedEvery = 32;
/// Eukarya at scale 3 has 771k edges; 270k stay for the timed phase, 10.8 s
/// at serve-rw's rate.
constexpr double kScale = 3.0;
constexpr double kWarmShare = 0.65;
constexpr std::size_t kBatchCap = std::size_t{1} << 20;
/// The reader samples queue depth every this many 1 ms ticks.
constexpr std::uint64_t kDepthEveryTicks = 10;
constexpr int kShards = 2;
constexpr int kReplicas = 2;
/// Span names of the reader's three request kinds.
constexpr const char* kServeReads[] = {
    "serve.component_at", "serve.component_of", "serve.same_component"};
constexpr const char* kShardReads[] = {
    "shard.component_at", "shard.component_of", "shard.same_component"};

struct PendingWrite {
  std::uint64_t index = 0;  // request id: the write's position in the stream
  int shard = 0;
  std::uint64_t seq = 0;    // the owning shard's ticket
  Clock::time_point due;
  VertexId u = 0, v = 0;
  SpanId insert_span = 0;
  Clock::time_point local_visible;  // shard-fanout: its shard published it
};

/// Writes in flight from the writer to the waiter, one FIFO per shard (a
/// shard's tickets rise in issue order).  shard-fanout moves a write from
/// `local` to `global` once its own shard has published it.
struct Pending {
  explicit Pending(int shards) : local(shards), global(shards) {}
  std::mutex mu;  // guards everything below
  std::condition_variable cv;
  std::vector<std::deque<PendingWrite>> local, global;
  bool closed = false;

  bool empty() const {
    for (std::size_t s = 0; s < local.size(); ++s)
      if (!local[s].empty() || !global[s].empty()) return false;
    return true;
  }
};

/// Everything the client threads measured; each field has one writer.
struct Samples {
  // waiter
  std::vector<double> visible_ms, due_s, local_ms, lag_ms;
  std::uint64_t ryw_violations = 0;
  // writer
  std::vector<double> insert_us;
  double gen_late_ms = 0;
  std::uint64_t writes = 0, write_failures = 0;
  // reader
  std::vector<double> read_us;
  std::uint64_t reads = 0, read_failures = 0, pinned = 0, pinned_misses = 0;
  std::uint64_t queue_depth_max = 0;
};

bool pinned_miss(serve::ServeStatus s) {
  return s == serve::ServeStatus::kRetiredEpoch ||
         s == serve::ServeStatus::kFutureEpoch;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(bool sharded, bool smoke)
      : sharded_(sharded),
        scale_(smoke ? 0.1 : kScale),
        write_rate_(smoke     ? 5000
                    : sharded ? kShardWriteRate
                              : kServeWriteRate),
        read_rate_(smoke ? 20000 : kReadRate) {}

  void setup(std::uint64_t seed) override {
    router_.reset();
    server_.reset();
    const auto t0 = Clock::now();
    stream_ = shuffled(eukarya(scale_, seed), seed);
    gen_seconds = seconds_since(t0);
    seed_ = seed;
    warm_edges_ = static_cast<std::size_t>(
        static_cast<double>(stream_.edges.size()) * kWarmShare);
    accepted_.assign(
        stream_.edges.begin(),
        stream_.edges.begin() + static_cast<std::ptrdiff_t>(warm_edges_));

    serve::ServeOptions serve_options;
    serve_options.batch_max_edges = kBatchCap;
    serve_options.queue_capacity = kBatchCap;
    if (sharded_) {
      shard::RouterOptions options;
      options.serve = serve_options;
      options.shards = kShards;
      options.replicas = kReplicas;
      options.reconcile_interval_ms = 2.0;
      router_ = std::make_unique<shard::Router>(stream_.n, kRanks, machine(),
                                                options);
      for (const graph::Edge& e : accepted_) router_->insert_edge(e.u, e.v);
      router_->flush();
    } else {
      server_ = std::make_unique<serve::Server>(stream_.n, kRanks, machine(),
                                                serve_options);
      for (const graph::Edge& e : accepted_) server_->insert_edge(e.u, e.v);
      server_->flush();
    }
  }

  Phase run(double seconds, Tracer* tracer, Report* layers) override {
    const std::vector<std::uint64_t> epochs_before = engine_epochs();
    const serve::ServeStats serve_before = serve_stats();
    const shard::RouterStats router_before =
        sharded_ ? router_->stats() : shard::RouterStats{};

    Samples samples;
    Pending pending(sharded_ ? kShards : 1);
    std::atomic<bool> stop_reading{false};
    const auto start = Clock::now();
    const double cpu0 = cpu_seconds();
    {
      std::thread waiter([&] {
        ThreadTrace* trace =
            tracer != nullptr ? tracer->thread("waiter") : nullptr;
        if (sharded_)
          wait_sharded(pending, samples, start, trace);
        else
          wait_single(pending, samples, start, trace);
      });
      std::thread reader([&] {
        read_loop(stop_reading, samples, start,
                  tracer != nullptr ? tracer->thread("reader") : nullptr);
      });
      // The client threads are joined before anything below can throw.
      std::exception_ptr writer_error;
      try {
        write_loop(seconds, pending, samples, start,
                   tracer != nullptr ? tracer->thread("writer") : nullptr);
      } catch (...) {
        writer_error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(pending.mu);
        pending.closed = true;
      }
      pending.cv.notify_all();
      waiter.join();
      stop_reading.store(true, std::memory_order_relaxed);
      reader.join();
      if (writer_error) std::rethrow_exception(writer_error);
    }
    const double phase_seconds = seconds_since(start);

    Phase phase;
    phase.cpu_seconds = cpu_seconds() - cpu0;
    phase.op_ms = samples.visible_ms;
    phase.op_at_s = samples.due_s;
    phase.attempted = samples.writes + samples.reads;
    phase.failed = samples.write_failures + samples.read_failures;
    if (samples.ryw_violations != 0)
      throw Mismatch(std::to_string(samples.ryw_violations) +
                     " read-your-writes violations");
    check_final();

    if (layers != nullptr)
      report_layers(*layers, samples, serve_before, router_before,
                    phase_seconds);
    const std::vector<stream::EpochStats> epochs =
        stop_and_collect(epochs_before);
    for (const stream::EpochStats& st : epochs)
      phase.modeled_ms.push_back(st.modeled_seconds() * 1e3);
    if (layers != nullptr) report_epochs(*layers, epochs);
    router_.reset();
    server_.reset();
    return phase;
  }

 private:
  void write_loop(double seconds, Pending& pending, Samples& samples,
                  Clock::time_point start, ThreadTrace* trace) {
    const char* name = sharded_ ? "shard.insert_edge" : "serve.insert_edge";
    const auto period = std::chrono::duration<double>(1.0 / write_rate_);
    for (std::uint64_t k = 0;; ++k) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   period * static_cast<double>(k));
      const std::size_t at = warm_edges_ + k;
      if (due - start >= std::chrono::duration<double>(seconds) ||
          at >= stream_.edges.size())
        break;
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      const auto t0 = Clock::now();
      samples.gen_late_ms = std::max(samples.gen_late_ms, ms_between(due, t0));

      const graph::Edge e = stream_.edges[at];
      PendingWrite w{k, 0, 0, due, e.u, e.v, 0, {}};
      bool ok = false;
      {
        Span span(trace, name, k);
        w.insert_span = span.id();
        if (sharded_) {
          const shard::ShardWriteResult r = router_->insert_edge(e.u, e.v);
          ok = r.status == serve::ServeStatus::kOk;
          if (ok) std::tie(w.shard, w.seq) = r.ticket.marks.front();
        } else {
          const serve::WriteResult r = server_->insert_edge(e.u, e.v);
          ok = r.status == serve::ServeStatus::kOk;
          w.seq = r.ticket;
        }
      }
      samples.insert_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      ++samples.writes;
      if (!ok) {
        ++samples.write_failures;
        continue;
      }
      accepted_.push_back(e);
      {
        std::lock_guard<std::mutex> lock(pending.mu);
        pending.local[static_cast<std::size_t>(w.shard)].push_back(w);
      }
      pending.cv.notify_one();
    }
  }

  void record_visible(Samples& samples, const PendingWrite& w,
                      Clock::time_point visible, Clock::time_point start,
                      const serve::ReadResult& r) {
    samples.visible_ms.push_back(ms_between(w.due, visible));
    samples.due_s.push_back(
        std::chrono::duration<double>(w.due - start).count());
    if (sharded_) {
      samples.local_ms.push_back(ms_between(w.due, w.local_visible));
      samples.lag_ms.push_back(ms_between(w.local_visible, visible));
    }
    if (r.status != serve::ServeStatus::kOk || !r.same)
      ++samples.ryw_violations;
  }

  /// serve-rw: block in a ticketed read on the oldest write, then stamp
  /// every write the server has applied by then at once.
  void wait_single(Pending& pending, Samples& samples, Clock::time_point start,
                   ThreadTrace* trace) {
    std::deque<PendingWrite>& queue = pending.local[0];
    for (;;) {
      PendingWrite w;
      {
        std::unique_lock<std::mutex> lock(pending.mu);
        pending.cv.wait(lock, [&] { return pending.closed || !queue.empty(); });
        if (queue.empty()) return;
        w = queue.front();
        queue.pop_front();
      }
      serve::ReadResult r;
      {
        Span span(trace, "serve.wait_visible", w.index, w.insert_span);
        r = server_->same_component(w.u, w.v, w.seq);
      }
      const std::uint64_t applied = server_->applied_seq();
      const auto visible = Clock::now();
      record_visible(samples, w, visible, start, r);
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(pending.mu);
          if (queue.empty() || queue.front().seq > applied) break;
          w = queue.front();
          queue.pop_front();
        }
        Span span(trace, "serve.same_component", w.index, w.insert_span);
        record_visible(samples, w, visible, start,
                       server_->same_component(w.u, w.v, w.seq));
      }
    }
  }

  /// shard-fanout: poll each shard's applied seq (local visibility) and a
  /// replica's covered watermarks; a write covered there is confirmed by a
  /// ticketed read on that replica, whose return is its visible time.
  /// Polling, not blocking, keeps both stamps of every write within one
  /// poll period (about 0.1 ms) of the event.
  void wait_sharded(Pending& pending, Samples& samples, Clock::time_point start,
                    ThreadTrace* trace) {
    std::vector<std::uint64_t> applied(kShards);
    for (std::uint64_t poll = 0;; ++poll) {
      for (int s = 0; s < kShards; ++s)
        applied[static_cast<std::size_t>(s)] = router_->shard(s).applied_seq();
      const auto local_now = Clock::now();
      const int replica = static_cast<int>(poll % kReplicas);
      const std::vector<std::uint64_t> covered =
          router_->snapshot(replica)->covered();
      std::vector<PendingWrite> ready;
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(pending.mu);
        for (std::size_t s = 0; s < kShards; ++s) {
          auto& local = pending.local[s];
          while (!local.empty() && local.front().seq <= applied[s]) {
            local.front().local_visible = local_now;
            {
              Span span(trace, "serve.local_visible", local.front().index,
                        local.front().insert_span);
            }
            pending.global[s].push_back(local.front());
            local.pop_front();
          }
          auto& global = pending.global[s];
          while (!global.empty() && global.front().seq <= covered[s]) {
            ready.push_back(global.front());
            global.pop_front();
          }
        }
        done = pending.closed && pending.empty();
      }
      for (const PendingWrite& w : ready) {
        shard::ShardTicket ticket;
        ticket.marks.emplace_back(w.shard, w.seq);
        serve::ReadResult r;
        {
          Span span(trace, "shard.wait_visible", w.index, w.insert_span);
          r = router_->same_component(w.u, w.v, ticket, replica);
        }
        record_visible(samples, w, Clock::now(), start, r);
      }
      if (done && ready.empty()) return;
      if (ready.empty())
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  void read_loop(const std::atomic<bool>& stop, Samples& samples,
                 Clock::time_point start, ThreadTrace* trace) {
    Xoshiro256 rng(seed_ ^ 0x7265616465720000ull);
    const VertexId n = stream_.n;
    const auto per_tick = static_cast<std::uint64_t>(read_rate_ / 1000);
    const char* const* names = sharded_ ? kShardReads : kServeReads;
    std::uint64_t latest_epoch = 0;
    for (std::uint64_t tick = 0; !stop.load(std::memory_order_relaxed);
         ++tick) {
      std::this_thread::sleep_until(start + std::chrono::milliseconds(tick));
      if (tick % kDepthEveryTicks == 0)
        samples.queue_depth_max =
            std::max(samples.queue_depth_max, serve_stats().queue_depth);
      for (std::uint64_t i = 0; i < per_tick; ++i, ++samples.reads) {
        const std::uint64_t k = samples.reads;
        const auto u = static_cast<VertexId>(rng.below(n));
        const auto v = static_cast<VertexId>(rng.below(n));
        const bool pinned = k % kPinnedEvery == kPinnedEvery - 1;
        const auto t0 = Clock::now();
        serve::ReadResult r;
        if (pinned) {
          const std::uint64_t back = (k / kPinnedEvery) % 4;
          const std::uint64_t at =
              latest_epoch > back ? latest_epoch - back : 0;
          Span span(trace, names[0], k);
          r = sharded_ ? router_->component_at(at, u)
                       : server_->component_at(at, u);
        } else if (k % 2 == 0) {
          Span span(trace, names[1], k);
          r = sharded_ ? router_->component_of(u) : server_->component_of(u);
        } else {
          Span span(trace, names[2], k);
          r = sharded_ ? router_->same_component(u, v)
                       : server_->same_component(u, v);
        }
        samples.read_us.push_back(std::chrono::duration<double, std::micro>(
                                      Clock::now() - t0)
                                      .count());
        if (pinned) {
          ++samples.pinned;
          if (pinned_miss(r.status)) {
            ++samples.pinned_misses;
            continue;
          }
        } else if (r.status == serve::ServeStatus::kOk) {
          latest_epoch = r.epoch;
        }
        if (r.status != serve::ServeStatus::kOk) ++samples.read_failures;
      }
    }
  }

  /// After a flush, every replica (or the server) serves exactly the
  /// union-find labels of the accepted edges.
  void check_final() {
    graph::EdgeList all(stream_.n);
    all.edges = accepted_;
    const std::vector<VertexId> truth = truth_labels(all);
    if (sharded_) {
      router_->flush();
      for (int r = 0; r < kReplicas; ++r)
        if (router_->snapshot(r)->view().labels() != truth)
          throw Mismatch("replica " + std::to_string(r) +
                         " labels differ from union-find");
    } else {
      server_->flush();
      if (server_->snapshot()->labels() != truth)
        throw Mismatch("served labels differ from union-find");
    }
  }

  /// The server's stats; for shard-fanout the longest queue, with batches
  /// summed.
  serve::ServeStats serve_stats() const {
    if (!sharded_) return server_->stats();
    serve::ServeStats out;
    for (int s = 0; s < kShards; ++s) {
      const serve::ServeStats st = router_->shard(s).stats();
      out.batches += st.batches;
      out.batched_edges += st.batched_edges;
      out.queue_depth = std::max(out.queue_depth, st.queue_depth);
    }
    return out;
  }

  /// Current epoch of every engine (one per shard).
  std::vector<std::uint64_t> engine_epochs() const {
    if (!sharded_) return {server_->stats().current_epoch};
    std::vector<std::uint64_t> out;
    for (int s = 0; s < kShards; ++s)
      out.push_back(router_->shard(s).stats().current_epoch);
    return out;
  }

  /// Stop the system (engine histories are readable once the engine
  /// threads have joined) and return every engine's epochs after `before`.
  std::vector<stream::EpochStats> stop_and_collect(
      const std::vector<std::uint64_t>& before) {
    std::vector<const std::vector<stream::EpochStats>*> histories;
    if (sharded_) {
      router_->stop();
      for (int s = 0; s < kShards; ++s)
        histories.push_back(&router_->shard(s).engine_history());
    } else {
      server_->stop();
      histories.push_back(&server_->engine_history());
    }
    std::vector<stream::EpochStats> out;
    for (std::size_t s = 0; s < histories.size(); ++s)
      out.insert(out.end(),
                 histories[s]->begin() + static_cast<std::ptrdiff_t>(before[s]),
                 histories[s]->end());
    return out;
  }

  void report_layers(Report& layers, const Samples& samples,
                     const serve::ServeStats& before,
                     const shard::RouterStats& router_before,
                     double phase_seconds) {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    layers.set("client.insert_us_p50", median(samples.insert_us));
    layers.set("client.insert_us_p99", percentile(samples.insert_us, 0.99));
    layers.set("client.read_us_p50", median(samples.read_us));
    layers.set("client.read_us_p99", percentile(samples.read_us, 0.99));
    layers.set("client.pinned_miss_share",
               ratio(static_cast<double>(samples.pinned_misses),
                     static_cast<double>(samples.pinned)));
    layers.set("client.gen_late_ms_max", samples.gen_late_ms);

    const serve::ServeStats after = serve_stats();
    const auto batches = static_cast<double>(after.batches - before.batches);
    layers.set("serve.batch_edges_mean",
               ratio(static_cast<double>(after.batched_edges -
                                         before.batched_edges),
                     batches));
    layers.set("serve.epochs_per_s", batches / phase_seconds);
    layers.set("serve.queue_depth_max",
               static_cast<double>(samples.queue_depth_max));
    if (!sharded_) {
      const serve::ServeStats st = server_->stats();
      layers.set("serve.pair_cache_hit_share",
                 ratio(static_cast<double>(st.cache_hits),
                       static_cast<double>(st.cache_hits + st.cache_misses)));
      return;
    }

    const shard::RouterStats rs = router_->stats();
    const shard::RouterStats& rb = router_before;
    layers.set("shard.local_visible_ms_p50", median(samples.local_ms));
    layers.set("shard.reconcile_lag_ms_p50", median(samples.lag_ms));
    const auto rounds =
        static_cast<double>(rs.reconcile_rounds - rb.reconcile_rounds);
    const auto skipped =
        static_cast<double>(rs.reconcile_skipped - rb.reconcile_skipped);
    layers.set("shard.reconcile_rounds", rounds);
    layers.set("shard.reconcile_useful_share",
               ratio(rounds, rounds + skipped));
    layers.set("shard.reconcile_modeled_ms",
               (rs.reconcile_modeled_seconds - rb.reconcile_modeled_seconds) *
                   1e3);
    layers.set("shard.boundary_words",
               static_cast<double>(rs.boundary_words_moved -
                                   rb.boundary_words_moved));
    layers.set("shard.boundary_raw", static_cast<double>(
                                         rs.boundary_raw_total -
                                         rb.boundary_raw_total));
    layers.set("shard.global_epochs_per_s",
               static_cast<double>(rs.global_epoch - rb.global_epoch) /
                   phase_seconds);
    layers.set("shard.ticket_waits",
               static_cast<double>(rs.ticket_waits - rb.ticket_waits));
  }

  static void report_epochs(Report& layers,
                            const std::vector<stream::EpochStats>& epochs) {
    double modeled = 0, rebuilds = 0, compactions = 0, relabeled = 0,
           cross = 0, edges = 0;
    for (const stream::EpochStats& st : epochs) {
      modeled += st.modeled_seconds();
      rebuilds += st.full_rebuild ? 1 : 0;
      compactions += st.compacted ? 1 : 0;
      relabeled += static_cast<double>(st.relabeled_vertices);
      cross += static_cast<double>(st.cross_edges);
      edges += static_cast<double>(st.batch_edges);
    }
    const auto n = static_cast<double>(epochs.size());
    if (n > 0) {
      layers.set("stream.rebuild_share", rebuilds / n);
      layers.set("stream.relabeled_per_epoch", relabeled / n);
      layers.set("stream.modeled_us_per_epoch", modeled / n * 1e6);
    }
    layers.set("stream.cross_share", edges > 0 ? cross / edges : 0);
    layers.set("stream.compactions", compactions);
  }

  const bool sharded_;
  const double scale_;
  const double write_rate_;
  const double read_rate_;
  std::uint64_t seed_ = 0;
  graph::EdgeList stream_;
  std::size_t warm_edges_ = 0;
  std::vector<graph::Edge> accepted_;  // warm-up edges, then accepted writes
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<shard::Router> router_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(bool sharded, bool smoke) {
  return std::make_unique<ServeWorkload>(sharded, smoke);
}

}  // namespace lacc_bench
