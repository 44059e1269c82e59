// lacc::stream::durable — crash-consistency proof for the WAL / run-file /
// manifest stack.
//
// The centerpiece is the kill-and-recover matrix: a fail point is armed at
// every named write site (fail_sites()), the engine "dies" mid-write (torn
// partial write + CrashError), and a fresh engine opened on the same
// directory must republish the labels of the last *committed* epoch
// bit-identically, then keep producing correct labels when the stream
// resumes.  The matrix runs at ranks 1/4/9 with compaction forced on and
// off, so every site fires in at least one configuration.
//
// On a label mismatch the test dumps a per-vertex diff under
// $LACC_DURABLE_DIGEST_DIR (when set) — CI uploads those as artifacts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "baselines/union_find.hpp"
#include "core/options.hpp"
#include "graph/generators.hpp"
#include "stream/delta_store.hpp"
#include "stream/durable/failpoint.hpp"
#include "stream/durable/manifest.hpp"
#include "stream/durable/run_file.hpp"
#include "stream/durable/wal.hpp"
#include "stream/engine.hpp"
#include "support/error.hpp"

namespace lacc::stream {
namespace {

namespace fs = std::filesystem;
using dist::CscCoord;

/// Fresh unique directory under the gtest temp root.
std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("lacc-durable-" + tag + "-" + std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

durable::Options durable_opts(const std::string& dir, bool always_compact) {
  durable::Options o;
  o.dir = dir;
  // Tiny blocks force multi-block run files; fanout 2 makes level merges
  // cascade within a handful of epochs.
  o.block_entries = 64;
  o.cache_blocks = 8;
  o.level_fanout = 2;
  (void)always_compact;
  return o;
}

StreamOptions stream_opts(const std::string& dir, bool always_compact) {
  StreamOptions o;
  o.durable = durable_opts(dir, always_compact);
  // 0 compacts on every epoch with delta entries; a huge factor never
  // compacts, so every run stays in the WAL/delta tier.
  o.compaction_factor = always_compact ? 0.0 : 1e18;
  return o;
}

std::vector<VertexId> truth_labels(const graph::EdgeList& el) {
  return core::normalize_labels(baselines::union_find_cc(el).parent);
}

/// Per-vertex diff dumped for CI artifacts when labels mismatch.
void dump_digest(const std::string& tag, const std::vector<VertexId>& want,
                 const std::vector<VertexId>& got) {
  const char* dir = std::getenv("LACC_DURABLE_DIGEST_DIR");
  if (dir == nullptr) return;
  fs::create_directories(dir);
  std::ofstream out(fs::path(dir) / (tag + ".diff"));
  out << "# vertex want got\n";
  for (std::size_t v = 0; v < want.size() && v < got.size(); ++v)
    if (want[v] != got[v]) out << v << " " << want[v] << " " << got[v] << "\n";
  if (want.size() != got.size())
    out << "# size mismatch: want " << want.size() << " got " << got.size()
        << "\n";
}

::testing::AssertionResult labels_equal(const std::string& tag,
                                        const std::vector<VertexId>& want,
                                        const std::vector<VertexId>& got) {
  if (want == got) return ::testing::AssertionSuccess();
  dump_digest(tag, want, got);
  return ::testing::AssertionFailure()
         << tag << ": recovered labels differ from golden (diff dumped to "
            "$LACC_DURABLE_DIGEST_DIR when set)";
}

/// Split an edge list into `parts` round-robin batches.
std::vector<graph::EdgeList> split_batches(const graph::EdgeList& el,
                                           std::size_t parts) {
  std::vector<graph::EdgeList> out(parts, graph::EdgeList(el.n));
  for (std::size_t k = 0; k < el.edges.size(); ++k)
    out[k % parts].edges.push_back(el.edges[k]);
  return out;
}

// --- unit round-trips ------------------------------------------------------

std::vector<CscCoord> some_coords(std::size_t count, std::uint64_t seed) {
  std::vector<CscCoord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto x = static_cast<VertexId>((i * 2654435761u + seed) % 997);
    out.push_back({x, static_cast<VertexId>((x * 31 + i) % 997)});
  }
  sort_unique_column_major(out, 997);
  return out;
}

TEST(DurableWal, AppendReadRoundTripAndTornTail) {
  const std::string dir = fresh_dir("wal");
  const std::string path = dir + "/gen1-r0.wal";
  durable::Counters counters;
  {
    durable::WalWriter w(path, durable::FsyncPolicy::kPerBatch, &counters);
    w.append(1, some_coords(10, 1));
    w.append(2, some_coords(100, 2));
    w.append(3, {});  // empty runs are legal records
  }
  EXPECT_EQ(counters.wal_records, 3u);
  EXPECT_EQ(counters.fsyncs, 3u);

  bool torn = true;
  auto records = durable::read_wal(path, &torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(torn);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].coords, some_coords(10, 1));
  EXPECT_EQ(records[1].coords, some_coords(100, 2));
  EXPECT_TRUE(records[2].coords.empty());

  // Chop into the last record's payload: the tail is discarded, earlier
  // records survive, and the torn flag reports the partial record.
  fs::resize_file(path, fs::file_size(path) - 6);
  records = durable::read_wal(path, &torn);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(torn);

  // A missing file reads as an empty log (a rank that never ingested).
  EXPECT_TRUE(durable::read_wal(dir + "/absent.wal", &torn).empty());
  EXPECT_FALSE(torn);
}

TEST(DurableRunFile, RoundTripMultiBlockAndCorruptionDetected) {
  const std::string dir = fresh_dir("run");
  const std::string path = dir + "/L0-1-r0.run";
  const auto coords = some_coords(300, 7);  // > 1 block at 64 entries/block
  durable::Counters counters;
  durable::write_run_file(path, coords, 64, &counters);
  EXPECT_EQ(counters.run_files_written, 1u);
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // tmp was renamed into place

  durable::BlockCache cache(8, &counters);
  {
    durable::RunFileReader reader(path, 1, &cache);
    EXPECT_EQ(reader.entries(), coords.size());
    EXPECT_GT(reader.block_count(), 1u);
    std::vector<CscCoord> out;
    reader.read_all(out);
    EXPECT_EQ(out, coords);
    // Second read comes from the cache.
    const auto misses = counters.cache_misses;
    out.clear();
    reader.read_all(out);
    EXPECT_EQ(out, coords);
    EXPECT_EQ(counters.cache_misses, misses);
    EXPECT_GT(counters.cache_hits, 0u);
  }

  // Flip one payload byte: the block CRC catches it at read time.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(40);
    f.write(&b, 1);
  }
  durable::BlockCache cold(8, &counters);
  try {
    durable::RunFileReader reader(path, 2, &cold);
    std::vector<CscCoord> out;
    reader.read_all(out);
    FAIL() << "corrupt block went undetected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos);
  }

  // Truncating the footer is caught at open.
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_THROW(durable::RunFileReader(path, 3, &cold), Error);
}

TEST(DurableManifest, SaveLoadRoundTripAndCorruptionDetected) {
  const std::string dir = fresh_dir("manifest");
  durable::Manifest m;
  m.n = 1234;
  m.nranks = 4;
  m.epoch = 17;
  m.wal_gen = 3;
  m.wal_processed_seq = 42;
  m.wal_base_seq = 40;
  m.next_file_seq = 9;
  m.levels = {{7, 8}, {5}};
  durable::save_manifest(dir, m);

  durable::Manifest r;
  ASSERT_TRUE(durable::load_manifest(dir, r));
  EXPECT_EQ(r.n, m.n);
  EXPECT_EQ(r.nranks, m.nranks);
  EXPECT_EQ(r.epoch, m.epoch);
  EXPECT_EQ(r.wal_gen, m.wal_gen);
  EXPECT_EQ(r.wal_processed_seq, m.wal_processed_seq);
  EXPECT_EQ(r.wal_base_seq, m.wal_base_seq);
  EXPECT_EQ(r.next_file_seq, m.next_file_seq);
  EXPECT_EQ(r.levels, m.levels);

  EXPECT_FALSE(durable::load_manifest(fresh_dir("manifest-absent"), r));

  // Flip a byte: the trailing CRC line rejects the file.
  const std::string path = dir + "/MANIFEST";
  {
    std::fstream f(path, std::ios::in | std::ios::out);
    f.seekp(20);
    f.write("X", 1);
  }
  EXPECT_THROW(durable::load_manifest(dir, r), Error);
}

// --- engine round trips ----------------------------------------------------

TEST(DurableEngine, DurableRunIsBitIdenticalToMemoryRun) {
  const auto el = graph::clustered_components(90, 6, 3.0, /*seed=*/21);
  const auto batches = split_batches(el, 3);
  for (const bool compact : {false, true}) {
    StreamEngine mem(el.n, 4, sim::MachineModel::local(),
                     [&] {
                       StreamOptions o;
                       o.compaction_factor = compact ? 0.0 : 1e18;
                       return o;
                     }());
    StreamEngine dur(el.n, 4, sim::MachineModel::local(),
                     stream_opts(fresh_dir("parity"), compact));
    for (const auto& b : batches) {
      mem.ingest(b);
      dur.ingest(b);
      const auto sm = mem.advance_epoch();
      const auto sd = dur.advance_epoch();
      // Durability adds host-side disk I/O only: labels, stats, and the
      // modeled clock are bit-identical with and without it.
      EXPECT_EQ(mem.labels(), dur.labels());
      EXPECT_EQ(sm.modeled_seconds(), sd.modeled_seconds());
      EXPECT_EQ(sm.components, sd.components);
      EXPECT_EQ(sm.compacted, sd.compacted);
    }
    EXPECT_FALSE(dur.recovered());
    const auto ds = dur.durability_stats();
    EXPECT_GT(ds.io.wal_records, 0u);
    if (compact) {
      EXPECT_GT(ds.io.run_files_written, 0u);
    }
  }
}

TEST(DurableEngine, RestartRecoversPublishedEpochAndContinues) {
  const auto el = graph::erdos_renyi(80, 200, /*seed=*/13);
  const auto batches = split_batches(el, 3);
  const std::string dir = fresh_dir("restart");

  std::vector<VertexId> golden;
  {
    StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                        stream_opts(dir, /*always_compact=*/true));
    engine.ingest(batches[0]);
    engine.advance_epoch();
    engine.ingest(batches[1]);
    engine.advance_epoch();
    golden = engine.labels();
  }

  StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                      stream_opts(dir, /*always_compact=*/true));
  EXPECT_TRUE(engine.durable());
  EXPECT_TRUE(engine.recovered());
  EXPECT_EQ(engine.recovered_epoch(), 2u);
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_TRUE(labels_equal("restart", golden, engine.labels()));
  const auto ds = engine.durability_stats();
  EXPECT_TRUE(ds.recovered);
  EXPECT_EQ(ds.recovered_epoch, 2u);
  EXPECT_GT(ds.recovery_seconds, 0.0);

  // History before the recovered epoch is gone; query_at says so clearly.
  try {
    const std::vector<VertexId> vs = {0};
    engine.query_at(1, vs);
    FAIL() << "query_at() before the recovered epoch should throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("predates recovery"),
              std::string::npos);
  }
  // At and after the recovered epoch it serves normally.
  const std::vector<VertexId> all = [&] {
    std::vector<VertexId> v(el.n);
    for (VertexId i = 0; i < el.n; ++i) v[i] = i;
    return v;
  }();
  EXPECT_EQ(engine.query_at(2, all), golden);

  // The stream resumes: fold in the last batch and match the full truth.
  engine.ingest(batches[2]);
  engine.advance_epoch();
  EXPECT_TRUE(labels_equal("restart-resume", truth_labels(el),
                           engine.labels()));
}

TEST(DurableEngine, PendingWalRecordsReplayAcrossRestart) {
  const auto el = graph::erdos_renyi(60, 150, /*seed=*/3);
  const auto batches = split_batches(el, 2);
  const std::string dir = fresh_dir("pending");
  {
    StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                        stream_opts(dir, false));
    engine.ingest(batches[0]);
    engine.advance_epoch();
    // Ingested but never advanced: durable in the WAL, pending at restart.
    engine.ingest(batches[1]);
  }
  StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                      stream_opts(dir, false));
  EXPECT_TRUE(engine.recovered());
  EXPECT_EQ(engine.recovered_epoch(), 1u);
  EXPECT_GT(engine.durability_stats().replayed_wal_records, 0u);
  // The replayed batch folds in on the next epoch; no re-ingest needed.
  engine.advance_epoch();
  EXPECT_TRUE(labels_equal("pending", truth_labels(el), engine.labels()));
}

TEST(DurableEngine, TornWalTailIsDiscardedNotFatal) {
  const auto el = graph::erdos_renyi(60, 150, /*seed=*/4);
  const auto batches = split_batches(el, 2);
  const std::string dir = fresh_dir("torn");
  std::vector<VertexId> golden;
  {
    StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                        stream_opts(dir, false));
    engine.ingest(batches[0]);
    engine.advance_epoch();
    golden = engine.labels();
    engine.ingest(batches[1]);  // pending record on every rank
  }
  // Tear rank 2's tail in the live WAL generation: its copy of the pending
  // record is now partial, so the replay limit drops the record on every
  // rank (it was never part of a published epoch) and recovery still
  // succeeds.
  durable::Manifest mf;
  ASSERT_TRUE(durable::load_manifest(dir, mf));
  const std::string wal =
      dir + "/wal/gen" + std::to_string(mf.wal_gen) + "-r2.wal";
  ASSERT_TRUE(fs::exists(wal));
  fs::resize_file(wal, fs::file_size(wal) - 9);

  StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                      stream_opts(dir, false));
  EXPECT_TRUE(engine.recovered());
  EXPECT_EQ(engine.recovered_epoch(), 1u);
  EXPECT_TRUE(labels_equal("torn", golden, engine.labels()));
  // The dropped batch really is gone: re-ingesting it reproduces the truth.
  engine.ingest(batches[1]);
  engine.advance_epoch();
  EXPECT_TRUE(labels_equal("torn-resume", truth_labels(el), engine.labels()));
}

TEST(DurableEngine, MismatchedGeometryIsRefused) {
  const std::string dir = fresh_dir("geometry");
  {
    StreamEngine engine(40, 4, sim::MachineModel::local(),
                        stream_opts(dir, false));
  }
  try {
    StreamEngine engine(41, 4, sim::MachineModel::local(),
                        stream_opts(dir, false));
    FAIL() << "vertex-count mismatch should be refused";
  } catch (const Error&) {
  }
  try {
    StreamEngine engine(40, 9, sim::MachineModel::local(),
                        stream_opts(dir, false));
    FAIL() << "rank-count mismatch should be refused";
  } catch (const Error&) {
  }
}

TEST(DurableEngine, EmptyBatchWritesNoWalRecord) {
  const std::string dir = fresh_dir("emptybatch");
  StreamEngine engine(30, 4, sim::MachineModel::local(),
                      stream_opts(dir, false));
  const auto st = engine.ingest(graph::EdgeList(30));
  EXPECT_EQ(st.kept, 0u);
  const auto es = engine.advance_epoch();
  EXPECT_EQ(es.batch_edges, 0u);
  EXPECT_EQ(es.ingest_modeled_seconds, 0.0);
  EXPECT_EQ(engine.durability_stats().io.wal_records, 0u);
}

TEST(DurableEngine, LevelCompactionCascadesAndSurvivesRestart) {
  const auto el = graph::erdos_renyi(120, 420, /*seed=*/29);
  const auto batches = split_batches(el, 6);
  const std::string dir = fresh_dir("levels");
  std::vector<VertexId> golden;
  {
    StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                        stream_opts(dir, /*always_compact=*/true));
    for (const auto& b : batches) {
      engine.ingest(b);
      engine.advance_epoch();
    }
    golden = engine.labels();
    const auto ds = engine.durability_stats();
    // Six compacted epochs at fanout 2 must cascade at least once, and the
    // live set stays bounded (leveling, not an append-only run list).
    EXPECT_GT(ds.io.level_compactions, 0u);
    EXPECT_LT(ds.run_files_live, 6u * 4u);
  }
  StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                      stream_opts(dir, /*always_compact=*/true));
  EXPECT_TRUE(engine.recovered());
  EXPECT_TRUE(labels_equal("levels", golden, engine.labels()));
  EXPECT_TRUE(labels_equal("levels-truth", truth_labels(el),
                           engine.labels()));
}

// --- fail-point error mode -------------------------------------------------

TEST(DurableFailPoints, ErrorModeSurfacesCleanError) {
  const auto el = graph::erdos_renyi(50, 120, /*seed=*/8);
  for (const char* site : {"wal.append.write", "manifest.write"}) {
    const std::string dir = fresh_dir("enospc");
    StreamEngine engine(el.n, 4, sim::MachineModel::local(),
                        stream_opts(dir, false));
    durable::FailPoints::arm(site, durable::FailMode::kError);
    try {
      engine.ingest(el);
      engine.advance_epoch();
      FAIL() << "armed kError site " << site << " did not surface";
    } catch (const durable::CrashError&) {
      durable::FailPoints::clear();
      FAIL() << "kError site " << site << " threw CrashError";
    } catch (const Error& e) {
      // The simulated ENOSPC reads like a real one: operation, path, site.
      EXPECT_NE(std::string(e.what()).find("durable I/O error"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(site), std::string::npos)
          << e.what();
    }
    durable::FailPoints::clear();
  }
}

// --- the kill-and-recover matrix -------------------------------------------

struct MatrixOutcome {
  bool fired = false;
  std::uint64_t committed_epoch = 0;
};

/// Run the pre-crash schedule: two committed epochs, then a third
/// ingest+advance with `site` armed to crash.  Returns what happened and
/// fills `golden` with the labels at every committed epoch.
MatrixOutcome run_until_crash(const graph::EdgeList& el,
                              const std::vector<graph::EdgeList>& batches,
                              const std::string& dir, int ranks, bool compact,
                              const std::string& site,
                              std::map<std::uint64_t,
                                       std::vector<VertexId>>& golden) {
  MatrixOutcome out;
  StreamEngine engine(el.n, ranks, sim::MachineModel::local(),
                      stream_opts(dir, compact));
  engine.ingest(batches[0]);
  engine.advance_epoch();
  golden[1] = engine.labels();
  engine.ingest(batches[1]);
  engine.advance_epoch();
  golden[2] = engine.labels();

  durable::FailPoints::arm(site, durable::FailMode::kCrash);
  try {
    engine.ingest(batches[2]);
    engine.advance_epoch();
    golden[3] = engine.labels();
    out.committed_epoch = 3;
  } catch (const durable::CrashError&) {
    out.fired = true;
  }
  durable::FailPoints::clear();
  return out;
}

TEST(DurableKillRecover, EveryWriteSiteEveryRankCount) {
  const auto el = graph::erdos_renyi(60, 160, /*seed=*/17);
  const auto batches = split_batches(el, 3);
  const auto truth = truth_labels(el);

  std::size_t fired_total = 0;
  for (const int ranks : {1, 4, 9}) {
    for (const bool compact : {false, true}) {
      for (const std::string& site : durable::fail_sites()) {
        const std::string tag = site + "-r" + std::to_string(ranks) +
                                (compact ? "-compact" : "-nocompact");
        SCOPED_TRACE(tag);
        const std::string dir = fresh_dir(tag);

        std::map<std::uint64_t, std::vector<VertexId>> golden;
        const MatrixOutcome out =
            run_until_crash(el, batches, dir, ranks, compact, site, golden);
        // A site that never fires in this configuration (e.g. run-file
        // sites with compaction off) still exercises plain recovery.
        fired_total += out.fired ? 1 : 0;

        StreamEngine recovered(el.n, ranks, sim::MachineModel::local(),
                               stream_opts(dir, compact));
        ASSERT_TRUE(recovered.recovered());
        const std::uint64_t at = recovered.recovered_epoch();
        // Whatever the crash interrupted, recovery lands on a *committed*
        // epoch — at least the last one known to have committed.
        ASSERT_GE(at, out.fired ? 2u : out.committed_epoch);
        ASSERT_TRUE(golden.count(at) != 0u)
            << "recovered epoch " << at << " was never committed";
        EXPECT_TRUE(labels_equal(tag, golden.at(at), recovered.labels()));

        // Resume: replaying the full stream must reach the global truth no
        // matter which prefix (and which pending WAL records) survived.
        recovered.ingest(el);
        recovered.advance_epoch();
        EXPECT_TRUE(labels_equal(tag + "-resume", truth,
                                 recovered.labels()));
      }
    }
  }
  // The matrix is only a proof if the crashes actually happened: every site
  // fires in at least one configuration, and most fire in many.
  EXPECT_GE(fired_total, durable::fail_sites().size());
}

}  // namespace
}  // namespace lacc::stream
