// Unified sweep driver: runs any built-in experiment grid in parallel
// and emits results through a pluggable sink.
//
//   sweep_main --spec fig7                     # human table to stdout
//   sweep_main --spec fig8 --threads 8         # parallel cells
//   sweep_main --spec smoke --format json --deterministic
//   sweep_main --spec smoke --golden           # process-invariant JSON
//   sweep_main --spec smoke --perf-out BENCH_sweep.json
//   sweep_main --list
//
// --threads drives both phases of a run: cold trace-set builds fan out
// over builder threads (each build in an isolated workload world) and the
// simulation workers replay cells in parallel.
//
// --deterministic omits all timing fields so the JSON/CSV bytes depend
// only on the spec and the simulation — identical for any --threads
// value within a process. --golden further restricts the output (JSON
// or CSV) to fields that are byte-stable across processes AND across
// cold parallel builds (grid, configs, trace-set totals; the simulated
// metrics shift with heap placement): the bytes committed as
// tests/golden/sweep_<spec>.json, which tests/test_goldens.cc diffs at
// several thread counts, warm and sharded.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "sweep/builtin_specs.h"
#include "sweep/runner.h"
#include "sweep/shard.h"
#include "sweep/sinks.h"

using namespace stagedcmp;

namespace {

int Usage(const char* argv0, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: %s --spec NAME [--threads N] [--format table|json|csv]\n"
      "          [--out FILE] [--perf-out FILE] [--trace-bundle FILE]\n"
      "          [--shard I/N] [--trace-out FILE]\n"
      "          [--deterministic] [--golden]\n"
      "       %s --merge OUT SHARD_FILE...\n"
      "       %s --list\n"
      "\n"
      "  --spec NAME       built-in grid to run (see --list)\n"
      "  --threads N       worker threads for trace building and\n"
      "                    simulation (default: hardware)\n"
      "  --format F        result sink: table (default), json, csv\n"
      "  --out FILE        write results to FILE instead of stdout\n"
      "  --perf-out FILE   also write a BENCH_sweep.json perf summary\n"
      "                    (wall clocks, throughput, peak_rss_mb, and the\n"
      "                    run's metrics registry: trace cache, sweep\n"
      "                    pipeline, replay counters)\n"
      "  --trace-out FILE  write a Chrome trace-event span timeline of\n"
      "                    the run (load it in ui.perfetto.dev); with\n"
      "                    --deterministic the bytes are canonical\n"
      "                    (see docs/OBSERVABILITY.md)\n"
      "  --trace-bundle F  persist/reuse built trace sets on disk: a\n"
      "                    matching bundle skips trace generation (warm),\n"
      "                    otherwise the cold build rewrites it. Delete\n"
      "                    the file after changing trace generation.\n"
      "  --shard I/N       execute only cells with index %% N == I. The\n"
      "                    FULL grid is still expanded (canonical indices\n"
      "                    and the bundle build sequence are unchanged)\n"
      "                    and sharded runs never rewrite the bundle.\n"
      "                    Writes a shard result file (checksummed\n"
      "                    binary words, not sink output) to --out;\n"
      "                    reassemble the N files with --merge.\n"
      "  --merge OUT F...  validate and merge N shard files, then emit\n"
      "                    through the configured sink (timing-free) to\n"
      "                    OUT ('-' = stdout). Honors --format/--golden.\n"
      "                    Output is byte-identical to the same\n"
      "                    unsharded run: full metrics when the shards\n"
      "                    replayed one warm bundle (--deterministic),\n"
      "                    golden fields for any runs (--golden).\n"
      "  --deterministic   omit timing fields from json/csv output\n"
      "  --golden          process-invariant output (for golden diffs);\n"
      "                    json (default) or csv\n",
      argv0, argv0, argv0);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_name;
  std::string format;  // empty = default (table; json under --golden)
  std::string out_path;
  std::string perf_path;
  std::string bundle_path;
  std::string trace_path;
  std::string shard_arg;   // "I/N"
  std::string merge_out;   // --merge output path; non-empty = merge mode
  std::vector<std::string> shard_files;  // --merge positionals
  uint32_t threads = 0;
  bool deterministic = false;
  bool golden = false;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(Usage(argv[0], 2));
      }
      return argv[++i];
    };
    if (arg == "--spec") {
      spec_name = value("--spec");
    } else if (arg == "--threads") {
      const char* v = value("--threads");
      char* end = nullptr;
      const unsigned long n = std::strtoul(v, &end, 10);
      if (*v == '\0' || *end != '\0' || *v == '-' || n > 4096) {
        std::fprintf(stderr, "--threads must be a number in [0, 4096], "
                             "got '%s'\n", v);
        return 2;
      }
      threads = static_cast<uint32_t>(n);
    } else if (arg == "--format") {
      format = value("--format");
    } else if (arg == "--out") {
      out_path = value("--out");
    } else if (arg == "--perf-out") {
      perf_path = value("--perf-out");
    } else if (arg == "--trace-bundle") {
      bundle_path = value("--trace-bundle");
    } else if (arg == "--shard") {
      shard_arg = value("--shard");
    } else if (arg == "--merge") {
      merge_out = value("--merge");
    } else if (arg == "--trace-out") {
      trace_path = value("--trace-out");
    } else if (arg == "--deterministic") {
      deterministic = true;
    } else if (arg == "--golden") {
      golden = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0], 0);
    } else if (!arg.empty() && arg[0] != '-' && !merge_out.empty()) {
      shard_files.push_back(arg);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return Usage(argv[0], 2);
    }
  }

  if (list) {
    const std::vector<std::string> names = sweep::BuiltinSpecNames();
    int width = 0;
    for (const std::string& name : names) {
      width = std::max(width, static_cast<int>(name.size()));
    }
    for (const std::string& name : names) {
      const sweep::SweepSpec spec = sweep::BuiltinSpec(name);
      std::printf("%-*s %4zu cells  %s\n", width, name.c_str(),
                  spec.CrossProductSize(), spec.description().c_str());
    }
    return 0;
  }

  if (!merge_out.empty()) {
    // Merge mode is a pure reassembly pass: no spec is run, the spec
    // identity comes from (and is validated against) the shard files.
    if (!shard_arg.empty() || !spec_name.empty()) {
      std::fprintf(stderr,
                   "--merge cannot be combined with --shard/--spec\n");
      return 2;
    }
    if (shard_files.empty()) {
      std::fprintf(stderr, "--merge requires shard file arguments\n");
      return Usage(argv[0], 2);
    }
    std::vector<std::string> texts;
    texts.reserve(shard_files.size());
    for (const std::string& path : shard_files) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read shard file '%s'\n", path.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      texts.push_back(buf.str());
    }
    std::string name;
    if (!sweep::PeekShardSpecName(texts[0], &name)) {
      std::fprintf(stderr, "'%s' is not a shard result file\n",
                   shard_files[0].c_str());
      return 1;
    }
    if (!sweep::HasBuiltinSpec(name)) {
      std::fprintf(stderr, "shard file names unknown spec '%s'\n",
                   name.c_str());
      return 1;
    }
    // The spec's workload scale is part of the fingerprint the shards
    // were written with.
    harness::WorkloadFactory factory;
    sweep::ConfigureFactoryForSpec(name, &factory);
    sweep::SweepReport report;
    std::string err;
    if (!sweep::MergeShardReports(sweep::BuiltinSpec(name), factory, texts,
                                  &report, &err)) {
      std::fprintf(stderr, "merge failed: %s\n", err.c_str());
      return 1;
    }
    // The merged report carries no timing, so the sink always runs
    // timing-free — the bytes match an unsharded --deterministic run.
    if (format.empty()) format = golden ? "json" : "table";
    std::unique_ptr<sweep::ResultSink> sink =
        sweep::MakeSink(format, /*include_timing=*/false, golden);
    if (!sink) {
      std::fprintf(stderr, "unknown format '%s' for --merge\n",
                   format.c_str());
      return 2;
    }
    if (merge_out == "-") {
      sink->Emit(report, std::cout);
    } else {
      std::ofstream out(merge_out);
      if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", merge_out.c_str());
        return 1;
      }
      sink->Emit(report, out);
    }
    return 0;
  }
  if (!shard_files.empty()) {
    std::fprintf(stderr, "positional arguments need --merge\n");
    return Usage(argv[0], 2);
  }

  uint32_t shard_index = 0;
  uint32_t shard_count = 0;
  if (!shard_arg.empty()) {
    char* end = nullptr;
    const unsigned long i = std::strtoul(shard_arg.c_str(), &end, 10);
    unsigned long n = 0;
    if (end != shard_arg.c_str() && *end == '/') {
      const char* rest = end + 1;
      n = std::strtoul(rest, &end, 10);
      if (end == rest) n = 0;
    }
    if (n < 2 || n > 4096 || i >= n || *end != '\0') {
      std::fprintf(stderr,
                   "--shard must be I/N with 0 <= I < N <= 4096, got "
                   "'%s'\n", shard_arg.c_str());
      return 2;
    }
    shard_index = static_cast<uint32_t>(i);
    shard_count = static_cast<uint32_t>(n);
  }

  if (spec_name.empty()) return Usage(argv[0], 2);
  if (!sweep::HasBuiltinSpec(spec_name)) {
    std::fprintf(stderr, "unknown spec '%s'; try --list\n",
                 spec_name.c_str());
    return 2;
  }
  std::unique_ptr<sweep::ResultSink> sink;
  if (golden) {
    if (format.empty()) format = "json";
    sink = sweep::MakeSink(format, /*include_timing=*/false,
                           /*golden=*/true);
    if (!sink) {
      std::fprintf(stderr, "--golden supports --format json|csv\n");
      return 2;
    }
  } else {
    if (format.empty()) format = "table";
    sink = sweep::MakeSink(format, /*include_timing=*/!deterministic);
    if (!sink) {
      std::fprintf(stderr, "unknown format '%s' (table|json|csv)\n",
                   format.c_str());
      return 2;
    }
  }

  harness::WorkloadFactory factory;
  // Per-spec workload-scale overrides (the large-n shootout grid shrinks
  // TPC-H). Must happen before the factory's first Build; bundle echoes
  // cover the scale, so a bundle built at another scale rebuilds cold.
  sweep::ConfigureFactoryForSpec(spec_name, &factory);
  // Metrics ride along whenever the perf summary wants them, as its
  // "metrics" section. Observability must never perturb results
  // (tests/test_goldens.cc re-diffs the golden with every sink on).
  MetricsRegistry registry;
  MetricsRegistry* const metrics = perf_path.empty() ? nullptr : &registry;
  // Cold builds fold traffic-shaper and YCSB counters (traffic.*,
  // ycsb.*) into the same registry; warm (bundle-served) runs build
  // nothing, so those families are absent there by design.
  factory.metrics = metrics;
  std::unique_ptr<TraceCollector> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<TraceCollector>(deterministic);
  }
  sweep::RunnerOptions options;
  options.threads = threads;
  options.trace_bundle = bundle_path;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  options.metrics = metrics;
  options.trace = tracer.get();
  sweep::SweepRunner runner(&factory, options);
  const sweep::SweepReport report =
      runner.Run(sweep::BuiltinSpec(spec_name));

  {
    TraceSpan sink_span(tracer.get(), "io", "sink.write");
    // Sharded runs emit the shard result file (--merge reassembles sink
    // output later); everything else goes through the configured sink.
    const auto emit = [&](std::ostream& os) {
      if (shard_count > 1) {
        sweep::WriteShardFile(report, factory, os);
      } else {
        sink->Emit(report, os);
      }
    };
    if (out_path.empty()) {
      emit(std::cout);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", out_path.c_str());
        return 1;
      }
      emit(out);
    }
  }

  if (!perf_path.empty()) {
    std::ofstream perf(perf_path);
    if (!perf) {
      std::fprintf(stderr, "cannot open '%s'\n", perf_path.c_str());
      return 1;
    }
    sweep::EmitPerfSummary(report, perf);
  }

  // The span timeline flushes last so it covers the sink write.
  if (tracer) {
    std::ofstream tout(trace_path);
    if (!tout) {
      std::fprintf(stderr, "cannot open '%s'\n", trace_path.c_str());
      return 1;
    }
    tracer->WriteJson(tout);
  }
  return 0;
}
