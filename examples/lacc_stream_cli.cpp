// lacc_stream_cli — replay a graph as a stream of edge batches through
// stream::StreamEngine and report what each epoch did.
//
//   lacc_stream_cli <graph.mtx|graph.bin|gen:NAME> [options]
//
//   --batches K               split the edge list into K batches (default 8)
//   --ranks N                 virtual ranks (default 4; perfect square)
//   --machine edison|cori|local   cost model (default edison)
//   --scale S                 stand-in scale for gen: inputs
//   --shuffle SEED            shuffle edges deterministically before batching
//   --compaction-factor X     delta/base compaction ratio (default 0.25)
//   --prepass                 Afforest-style sampling pre-pass in the
//                             rebuild path
//   --sample-rounds N         pre-pass neighbor rounds (default 2)
//   --no-frequent-skip        pre-pass: link every local edge
//   --data-dir DIR            persist to DIR (WAL + run files + manifest);
//                             a non-empty DIR recovers the last published
//                             epoch before replaying the stream
//   --fsync batch|epoch       WAL fsync policy (default batch; needs
//                             --data-dir)
//   --verify                  check final labels against serial union-find
//   --out labels.txt          write "vertex component" lines (final epoch)
//   --trace-out FILE          Chrome trace of the LAST epoch's SPMD session
//   --json FILE               write lacc-metrics-v7 JSON (per-epoch array)
//
// Inputs are the same as lacc_cli (Matrix Market, LACC binary, gen:NAME).
// Prints one table row per epoch — batch size, cross-component edges,
// merges, surviving components, incremental vs rebuild — plus the
// accumulated modeled time.  Observability outputs go to files only, and
// the durability report lines appear only under --data-dir, so memory-only
// stdout is identical with and without them (docs/OBSERVABILITY.md).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/union_find.hpp"
#include "core/options.hpp"
#include "graph/io.hpp"
#include "graph/testproblems.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/engine.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace lacc;

namespace {

int usage() {
  std::cerr << "usage: lacc_stream_cli <graph.mtx|graph.bin|gen:NAME> "
               "[--batches K] [--ranks N] [--machine edison|cori|local] "
               "[--scale S] [--shuffle SEED] [--compaction-factor X] "
               "[--prepass] [--sample-rounds N] "
               "[--no-frequent-skip] [--data-dir DIR] [--fsync batch|epoch] "
               "[--verify] [--out FILE] [--trace-out FILE] [--json FILE]\n";
  return 2;
}

const sim::MachineModel& machine_by_name(const std::string& name) {
  if (name == "edison") return sim::MachineModel::edison();
  if (name == "cori") return sim::MachineModel::cori_knl();
  if (name == "local") return sim::MachineModel::local();
  throw Error("unknown machine: " + name);
}

/// Parse a flag's value as an int; on garbage, report and exit with usage
/// instead of dying on an uncaught std::invalid_argument.
int parse_int(const char* flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(text, &pos);
    if (pos == text.size()) return v;
  } catch (const std::exception&) {
  }
  std::cerr << "error: " << flag << " expects an integer, got \"" << text
            << "\"\n";
  std::exit(usage());
}

double parse_double(const char* flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos == text.size()) return v;
  } catch (const std::exception&) {
  }
  std::cerr << "error: " << flag << " expects a number, got \"" << text
            << "\"\n";
  std::exit(usage());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string path = argv[1];
  std::string machine = "edison", out_path, trace_out_path, json_path;
  std::string fsync_policy;
  int batches = 8, ranks = 4;
  double scale = 0.25;
  std::uint64_t shuffle_seed = 0;
  bool shuffle = false, verify = false;
  stream::StreamOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--batches")
      batches = parse_int("--batches", next());
    else if (arg == "--ranks")
      ranks = parse_int("--ranks", next());
    else if (arg == "--machine")
      machine = next();
    else if (arg == "--scale")
      scale = parse_double("--scale", next());
    else if (arg == "--shuffle") {
      shuffle = true;
      shuffle_seed =
          static_cast<std::uint64_t>(parse_int("--shuffle", next()));
    } else if (arg == "--compaction-factor")
      options.compaction_factor = parse_double("--compaction-factor", next());
    else if (arg == "--prepass")
      options.lacc.sampling_prepass = true;
    else if (arg == "--sample-rounds")
      options.lacc.sample_rounds = parse_int("--sample-rounds", next());
    else if (arg == "--no-frequent-skip")
      options.lacc.frequent_skip = false;
    else if (arg == "--data-dir")
      options.durable.dir = next();
    else if (arg == "--fsync")
      fsync_policy = next();
    else if (arg == "--verify")
      verify = true;
    else if (arg == "--out")
      out_path = next();
    else if (arg == "--trace-out")
      trace_out_path = next();
    else if (arg == "--json")
      json_path = next();
    else
      return usage();
  }

  {
    int q = 0;
    while (q * q < ranks) ++q;
    if (ranks < 1 || q * q != ranks) {
      std::cerr << "error: --ranks must be a positive perfect square (got "
                << ranks << ")\n";
      return usage();
    }
  }
  if (batches < 1) {
    std::cerr << "error: --batches must be at least 1 (got " << batches
              << ")\n";
    return usage();
  }
  if (scale <= 0) {
    std::cerr << "error: --scale must be positive (got " << scale << ")\n";
    return usage();
  }
  if (options.compaction_factor < 0) {
    std::cerr << "error: --compaction-factor must be non-negative (got "
              << options.compaction_factor << ")\n";
    return usage();
  }
  if (options.lacc.sample_rounds < 0) {
    std::cerr << "error: --sample-rounds must be non-negative (got "
              << options.lacc.sample_rounds << ")\n";
    return usage();
  }
  if (!fsync_policy.empty()) {
    if (options.durable.dir.empty()) {
      std::cerr << "error: --fsync requires --data-dir\n";
      return usage();
    }
    if (fsync_policy == "batch")
      options.durable.fsync = stream::durable::FsyncPolicy::kPerBatch;
    else if (fsync_policy == "epoch")
      options.durable.fsync = stream::durable::FsyncPolicy::kPerEpoch;
    else {
      std::cerr << "error: --fsync must be batch or epoch (got "
                << fsync_policy << ")\n";
      return usage();
    }
  }

  // Record spans when a trace file was requested; only the last epoch's
  // SPMD session survives for export, which is what the engine exposes.
  if (!trace_out_path.empty()) obs::set_trace_enabled(true);

  try {
    graph::EdgeList el;
    if (path.rfind("gen:", 0) == 0) {
      const auto problems = graph::make_test_problems(scale);
      el = graph::find_problem(problems, path.substr(4)).graph;
    } else if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
      el = graph::read_binary_file(path);
    } else {
      el = graph::read_matrix_market_file(path);
    }
    std::cout << "Graph: " << fmt_count(el.n) << " vertices, "
              << fmt_count(el.edges.size()) << " entries, replayed as "
              << batches << " batch(es)\n";

    if (shuffle) {
      Xoshiro256 rng(shuffle_seed);
      for (std::size_t i = el.edges.size(); i > 1; --i)
        std::swap(el.edges[i - 1], el.edges[rng.below(i)]);
    }

    const auto& m = machine_by_name(machine);
    std::cout << "Engine: " << ranks << " virtual ranks (" << m.name
              << " model), compaction factor " << options.compaction_factor
              << "\n";

    Timer timer;
    stream::StreamEngine engine(el.n, ranks, m, options);
    if (engine.durable()) {
      std::cout << "Durable: " << options.durable.dir << " (fsync per "
                << (options.durable.fsync ==
                            stream::durable::FsyncPolicy::kPerBatch
                        ? "batch"
                        : "epoch")
                << ")";
      if (engine.recovered()) {
        const auto ds = engine.durability_stats();
        std::cout << ", recovered epoch " << engine.recovered_epoch() << " ("
                  << fmt_count(ds.replayed_wal_records)
                  << " pending WAL record(s) replayed in "
                  << fmt_seconds(ds.recovery_seconds) << ")";
      }
      std::cout << "\n";
    }
    if (verify && engine.recovered()) {
      std::cerr << "error: --verify needs the full batch history, but this "
                   "engine recovered at epoch "
                << engine.recovered_epoch()
                << "; run --verify against a fresh --data-dir\n";
      return 1;
    }
    const std::size_t per_batch =
        (el.edges.size() + static_cast<std::size_t>(batches) - 1) /
        static_cast<std::size_t>(std::max(batches, 1));
    TextTable table({"epoch", "edges", "cross", "merges", "components",
                     "mode", "modeled"});
    for (std::size_t at = 0; at < el.edges.size() || at == 0;
         at += std::max<std::size_t>(per_batch, 1)) {
      graph::EdgeList slice(el.n);
      const std::size_t hi = std::min(at + per_batch, el.edges.size());
      slice.edges.assign(el.edges.begin() + static_cast<std::ptrdiff_t>(at),
                         el.edges.begin() + static_cast<std::ptrdiff_t>(hi));
      engine.ingest(slice);
      const auto st = engine.advance_epoch();
      table.add_row({std::to_string(st.epoch), fmt_count(st.batch_edges),
                     fmt_count(st.cross_edges), fmt_count(st.merges),
                     fmt_count(st.components),
                     st.full_rebuild ? "rebuild" : "inc",
                     fmt_seconds(st.modeled_seconds())});
      if (hi >= el.edges.size()) break;
    }
    const double wall = timer.seconds();
    table.print(std::cout);

    std::cout << "Components: " << fmt_count(engine.num_components())
              << " after " << engine.epoch() << " epoch(s)\n";
    std::cout << "Wall time: " << fmt_seconds(wall) << ", modeled time: "
              << fmt_seconds(engine.total_modeled_seconds()) << "\n";
    if (engine.durable()) {
      const auto ds = engine.durability_stats();
      std::cout << "Durability: " << fmt_count(ds.io.wal_records)
                << " WAL record(s), " << fmt_count(ds.io.fsyncs)
                << " fsync(s), " << fmt_count(ds.io.run_files_written)
                << " run file(s) written (" << fmt_count(ds.run_files_live)
                << " live), " << fmt_count(ds.io.level_compactions)
                << " level compaction(s)\n";
    }

    if (verify) {
      const auto truth = baselines::union_find_cc(el);
      if (engine.labels() != core::normalize_labels(truth.parent)) {
        std::cerr << "error: VERIFY FAILED — incremental labels disagree "
                     "with serial union-find\n";
        return 1;
      }
      std::cout << "Verify: labels match serial union-find\n";
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      LACC_CHECK_MSG(out.good(), "cannot write " << out_path);
      for (VertexId v = 0; v < el.n; ++v)
        out << v << " " << engine.labels()[v] << "\n";
      std::cout << "Labels written to " << out_path << "\n";
    }

    if (!trace_out_path.empty()) {
      std::ofstream out(trace_out_path);
      LACC_CHECK_MSG(out.good(), "cannot write " << trace_out_path);
      obs::TraceMeta meta;
      meta.process_name = "lacc_stream_cli " + path + " (last epoch)";
      obs::write_chrome_trace(out, engine.last_epoch_spmd().stats, meta);
    }

    if (!json_path.empty()) {
      std::uint64_t rebuilds = 0;
      obs::RunRecord rec = obs::make_run_record(
          path, ranks, engine.last_epoch_spmd().stats,
          engine.total_modeled_seconds(), wall, {});
      for (const auto& st : engine.history()) {
        rebuilds += st.full_rebuild ? 1 : 0;
        rec.epochs.push_back(
            {{"epoch", static_cast<double>(st.epoch)},
             {"batch_edges", static_cast<double>(st.batch_edges)},
             {"delta_nnz", static_cast<double>(st.delta_nnz)},
             {"cross_edges", static_cast<double>(st.cross_edges)},
             {"merges", static_cast<double>(st.merges)},
             {"components", static_cast<double>(st.components)},
             {"relabeled_vertices",
              static_cast<double>(st.relabeled_vertices)},
             {"full_rebuild", st.full_rebuild ? 1.0 : 0.0},
             {"compacted", st.compacted ? 1.0 : 0.0},
             {"iterations", static_cast<double>(st.iterations)},
             {"modeled_seconds", st.modeled_seconds()}});
      }
      rec.scalars = {
          {"vertices", static_cast<double>(el.n)},
          {"edges", static_cast<double>(el.edges.size())},
          {"epochs", static_cast<double>(engine.epoch())},
          {"components", static_cast<double>(engine.num_components())},
          {"full_rebuilds", static_cast<double>(rebuilds)}};
      if (engine.durable())
        rec.durability =
            stream::durable::durability_scalars(engine.durability_stats());
      std::ofstream out(json_path);
      LACC_CHECK_MSG(out.good(), "cannot write " << json_path);
      obs::write_metrics_json(
          out, "lacc_stream_cli",
          {{"scale", scale},
           {"ranks", static_cast<double>(ranks)},
           {"batches", static_cast<double>(batches)},
           {"compaction_factor", options.compaction_factor},
           {"prepass", options.lacc.sampling_prepass ? 1.0 : 0.0}},
          {std::move(rec)});
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
