#include "sweep/sinks.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#ifdef __unix__
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "common/json.h"
#include "common/table_printer.h"
#include "coresim/breakdown.h"
#include "harness/config_fields.h"

namespace stagedcmp::sweep {

namespace {

/// Minimal ordered-key JSON object writer.
class JsonObj {
 public:
  JsonObj(std::ostream& os, int indent) : os_(os), indent_(indent) {
    os_ << "{";
  }
  void Field(const std::string& key, const std::string& raw_value) {
    os_ << (first_ ? "\n" : ",\n") << Pad(indent_ + 2) << JsonQuote(key)
        << ": " << raw_value;
    first_ = false;
  }
  void Str(const std::string& key, const std::string& v) {
    Field(key, JsonQuote(v));
  }
  void Num(const std::string& key, double v) { Field(key, JsonDouble(v)); }
  void Int(const std::string& key, uint64_t v) {
    Field(key, std::to_string(v));
  }
  void Bool(const std::string& key, bool v) {
    Field(key, v ? "true" : "false");
  }
  void Close() { os_ << "\n" << Pad(indent_) << "}"; }

  static std::string Pad(int n) { return std::string(static_cast<size_t>(n), ' '); }

 private:
  std::ostream& os_;
  int indent_;
  bool first_ = true;
};

/// A config field's value as text: enums by name, doubles round-trip
/// exact, bools as JSON literals or (CSV/table columns) as 1/0.
template <typename T>
std::string FieldText(const T& v, bool json) {
  if constexpr (std::is_enum_v<T>) {
    return json ? JsonQuote(harness::FieldName(v)) : harness::FieldName(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return json ? (v ? "true" : "false") : (v ? "1" : "0");
  } else if constexpr (std::is_floating_point_v<T>) {
    return JsonDouble(v);
  } else {
    return std::to_string(v);
  }
}

/// Config fields the CSV carries, by field-table name.
constexpr const char* kCsvConfigColumns[] = {
    "workload", "clients",  "requests_per_client", "seed",
    "engine",   "camp",     "cores",               "l2_bytes",
    "latency",  "topology", "saturated",           "l2_ports"};

/// Simulated metrics, in output order: one table drives the JSON
/// "metrics" object (which adds cpi_components right after
/// avg_response_cycles) and the CSV's header and every row.
struct MetricColumn {
  const char* name;
  std::string (*text)(const coresim::SimResult& r);
};
using Result = coresim::SimResult;
constexpr MetricColumn kMetricColumns[] = {
    {"instructions",
     [](const Result& r) { return std::to_string(r.instructions); }},
    {"elapsed_cycles",
     [](const Result& r) { return std::to_string(r.elapsed_cycles); }},
    {"cpi", [](const Result& r) { return JsonDouble(r.cpi()); }},
    {"uipc", [](const Result& r) { return JsonDouble(r.uipc()); }},
    {"l1d_hit_rate",
     [](const Result& r) { return JsonDouble(r.l1d_hit_rate); }},
    {"l1i_hit_rate",
     [](const Result& r) { return JsonDouble(r.l1i_hit_rate); }},
    {"l2_hit_rate", [](const Result& r) { return JsonDouble(r.l2_hit_rate); }},
    {"requests_completed",
     [](const Result& r) { return std::to_string(r.requests_completed); }},
    {"avg_response_cycles",
     [](const Result& r) { return JsonDouble(r.avg_response_cycles); }},
    {"queue_delay_mean",
     [](const Result& r) { return JsonDouble(r.mem.queue_delay.mean()); }},
    {"l1_to_l1_transfers",
     [](const Result& r) { return std::to_string(r.mem.l1_to_l1_transfers); }},
    {"invalidations",
     [](const Result& r) { return std::to_string(r.mem.invalidations); }},
    {"writebacks",
     [](const Result& r) { return std::to_string(r.mem.writebacks); }}};

/// Column text of the config field called `name`.
std::string ConfigText(const Cell& cell, const char* name) {
  std::string text;
  const auto pick = [&](const char* n, const auto& v, bool) {
    if (std::strcmp(n, name) == 0) text = FieldText(v, /*json=*/false);
  };
  harness::VisitFields(cell.trace, pick);
  harness::VisitFields(cell.exp, pick);
  return text;
}

}  // namespace

void EmitCellConfigJson(const Cell& cell, std::ostream& os, int indent) {
  JsonObj o(os, indent);
  const auto echo = [&o](const char* name, const auto& v, bool present) {
    if (present) o.Field(name, FieldText(v, /*json=*/true));
  };
  harness::VisitFields(cell.trace, echo);
  harness::VisitFields(cell.exp, echo);
  const harness::ResolvedHardware hw = harness::ResolveHardware(cell.exp);
  o.Int("l2_hit_cycles", hw.l2_hit_cycles);
  o.Int("contexts_per_core", hw.contexts_per_core);
  o.Close();
}

namespace {

void EmitCellMetrics(const CellResult& cr, std::ostream& os, int indent) {
  const coresim::SimResult& r = cr.result;
  JsonObj o(os, indent);
  for (const MetricColumn& m : kMetricColumns) {
    o.Field(m.name, m.text(r));
    if (std::strcmp(m.name, "avg_response_cycles") != 0) continue;
    std::ostringstream sub;
    JsonObj c(sub, indent + 2);
    for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
      const auto bucket = static_cast<coresim::Bucket>(b);
      c.Num(coresim::BucketName(bucket), r.CpiComponent(bucket));
    }
    c.Close();
    o.Field("cpi_components", sub.str());
  }
  // Shared-bus occupancy, present only on cells that enable the SMP bus
  // model (keyed off the config, not the result, so deterministic bytes
  // of every other spec are untouched).
  if (cr.cell.exp.smp_bus_model &&
      cr.cell.exp.topology == harness::Topology::kSmpPrivate) {
    std::ostringstream sub;
    JsonObj b(sub, indent + 2);
    b.Int("transactions", r.mem.bus_transactions);
    b.Int("busy_cycles", r.mem.bus_busy_cycles);
    b.Int("peak_queue_delay", r.mem.bus_peak_queue);
    b.Close();
    o.Field("bus", sub.str());
  }
  // Multi-tenant attribution, present only on cells that set a tenant
  // boundary (SimConfig::tenant_a_clients).
  if (r.num_tenants > 0) {
    std::ostringstream sub;
    sub << "[";
    for (uint32_t t = 0; t < r.num_tenants; ++t) {
      const coresim::TenantStats& ts = r.tenants[t];
      sub << (t ? ",\n" : "\n") << JsonObj::Pad(indent + 4);
      JsonObj tn(sub, indent + 4);
      tn.Int("instructions", ts.instructions);
      tn.Int("requests", ts.requests);
      tn.Int("data_accesses", ts.data_accesses());
      tn.Num("data_offchip_rate", ts.data_offchip_rate());
      tn.Close();
    }
    sub << "\n" << JsonObj::Pad(indent + 2) << "]";
    o.Field("tenants", sub.str());
  }
  o.Close();
}

/// Execution-environment fingerprint for perf summaries: enough to tell
/// two BENCH trajectory points apart when they came from different
/// machines or build flavors. Build knobs arrive as compile definitions
/// (src/sweep/CMakeLists.txt); everything degrades to "unknown".
void EmitEnvironment(std::ostream& os, int indent) {
  std::string hostname = "unknown";
#ifdef __unix__
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    hostname = buf;
  }
#endif
  JsonObj o(os, indent);
  o.Str("hostname", hostname);
  o.Int("hardware_concurrency", std::thread::hardware_concurrency());
#ifdef STAGEDCMP_BUILD_TYPE
  o.Str("build_type", STAGEDCMP_BUILD_TYPE);
#else
  o.Str("build_type", "unknown");
#endif
  o.Close();
}

/// The process's peak resident set so far (getrusage ru_maxrss, KiB on
/// Linux) in MiB; 0 where unavailable.
double PeakRssMb() {
#ifdef __unix__
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
#endif
  return 0.0;
}

/// The process's minor page faults so far (getrusage ru_minflt); 0 where
/// unavailable.
uint64_t MinorPageFaults() {
#ifdef __unix__
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<uint64_t>(ru.ru_minflt);
  }
#endif
  return 0;
}

}  // namespace

void TableSink::Emit(const SweepReport& report, std::ostream& os) const {
  // Hardware context columns, skipped when a same-named axis already
  // carries the information (e.g. fig8's "cores", fig6's "l2").
  auto has_axis = [&](const char* name) {
    for (const std::string& a : report.axis_names) {
      if (a == name) return true;
    }
    return false;
  };
  const bool want_cores = !has_axis("cores");
  const bool want_l2 = !has_axis("l2");
  const bool want_base = !report.baseline.empty();

  // UIPC by cell labels, for the baseline column's sibling lookup.
  std::map<std::vector<std::string>, double> uipc_of;
  if (want_base) {
    for (const CellResult& cr : report.cells) {
      uipc_of[cr.cell.values] = cr.result.uipc();
    }
  }

  std::vector<std::string> header{"#"};
  for (const std::string& a : report.axis_names) header.push_back(a);
  if (want_cores) header.emplace_back("cores");
  if (want_l2) header.emplace_back("L2");
  header.emplace_back("CPI");
  header.emplace_back("UIPC");
  if (want_base) header.emplace_back("UIPC/base");
  for (const char* m : {"L2 hit", "comp", "I-stall", "D-stall", "coh",
                        "other", "queue"}) {
    header.emplace_back(m);
  }
  TablePrinter table(std::move(header));
  for (const CellResult& cr : report.cells) {
    const coresim::SimResult& r = cr.result;
    std::vector<std::string> row{std::to_string(cr.cell.index)};
    for (const std::string& v : cr.cell.values) row.push_back(v);
    if (want_cores) row.push_back(ConfigText(cr.cell, "cores"));
    if (want_l2) {
      const uint64_t bytes = cr.cell.exp.l2_bytes;
      row.push_back(bytes < (1ull << 20)
                        ? std::to_string(bytes >> 10) + "KB"
                        : std::to_string(bytes >> 20) + "MB");
    }
    row.push_back(TablePrinter::Num(r.cpi(), 2));
    row.push_back(TablePrinter::Num(r.uipc(), 2));
    if (want_base) {
      // "-" when the sibling is filtered out of the grid.
      std::vector<std::string> base;
      const auto it =
          BaselineLabels(report.axis_names, report.baseline, cr.cell.values,
                         &base)
              ? uipc_of.find(base)
              : uipc_of.end();
      row.push_back(it != uipc_of.end() && it->second > 0.0
                        ? TablePrinter::Num(r.uipc() / it->second, 2)
                        : "-");
    }
    row.push_back(TablePrinter::Pct(r.l2_hit_rate));
    const double n = r.instructions ? static_cast<double>(r.instructions) : 1;
    row.push_back(TablePrinter::Num(r.breakdown.computation() / n, 2));
    row.push_back(TablePrinter::Num(r.breakdown.i_stalls() / n, 2));
    row.push_back(TablePrinter::Num(r.breakdown.d_stalls() / n, 2));
    row.push_back(
        TablePrinter::Num(r.CpiComponent(coresim::Bucket::kDStallCoh), 3));
    row.push_back(TablePrinter::Num(r.breakdown.other() / n, 2));
    row.push_back(TablePrinter::Num(r.mem.queue_delay.mean(), 1));
    table.AddRow(std::move(row));
  }
  os << "sweep '" << report.spec_name << "': " << report.cells.size()
     << " cells\n";
  table.Print(os);
  if (include_timing_) {
    // Trace building overlaps the simulation pipeline, so the
    // components are not additive.
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%llu trace sets, %u threads | trace-build %.2fs "
                  "(overlapped) | wall %.2fs (%.2f cells/sec)\n",
                  static_cast<unsigned long long>(report.trace_sets_built),
                  report.threads, report.build_wall_seconds,
                  report.wall_seconds, report.cells_per_second());
    os << buf;
    // Set lifetime, present when the run collected metrics. Lives with
    // the timing footer: like the timings it describes this execution,
    // not the spec.
    if (report.has_metrics) {
      const MetricsSnapshot& m = report.metrics;
      std::snprintf(
          buf, sizeof(buf),
          "sets %llu built / %llu sliced / %llu released"
          " | replay %llu events\n",
          static_cast<unsigned long long>(m.CounterOr("sweep.sets_built")),
          static_cast<unsigned long long>(m.CounterOr("sweep.sets_sliced")),
          static_cast<unsigned long long>(
              m.CounterOr("sweep.sets_released")),
          static_cast<unsigned long long>(
              m.CounterOr("replay.events_replayed")));
      os << buf;
    }
  }
}

void JsonSink::Emit(const SweepReport& report, std::ostream& os) const {
  JsonObj top(os, 0);
  top.Str("spec", report.spec_name);
  {
    std::string axes = "[";
    for (size_t i = 0; i < report.axis_names.size(); ++i) {
      if (i) axes += ", ";
      axes += JsonQuote(report.axis_names[i]);
    }
    axes += "]";
    top.Field("axes", axes);
  }
  top.Int("cell_count", report.cells.size());
  // Execution-environment fields (not functions of the spec alone): how
  // many sets this run built depends on cache warmth, like the timings.
  if (include_timing_) {
    top.Int("trace_sets_built", report.trace_sets_built);
    top.Int("threads", report.threads);
    top.Num("build_wall_seconds", report.build_wall_seconds);
    top.Num("sim_wall_seconds", report.sim_wall_seconds);
    top.Num("wall_seconds", report.wall_seconds);
    top.Num("cells_per_second", report.cells_per_second());
  }
  {
    std::ostringstream cells;
    cells << "[";
    for (size_t i = 0; i < report.cells.size(); ++i) {
      const CellResult& cr = report.cells[i];
      cells << (i ? ",\n" : "\n") << JsonObj::Pad(4);
      JsonObj c(cells, 4);
      c.Int("index", cr.cell.index);
      {
        std::ostringstream labels;
        JsonObj l(labels, 6);
        for (size_t a = 0;
             a < report.axis_names.size() && a < cr.cell.values.size(); ++a) {
          l.Str(report.axis_names[a], cr.cell.values[a]);
        }
        l.Close();
        c.Field("labels", labels.str());
      }
      {
        std::ostringstream cfg;
        EmitCellConfigJson(cr.cell, cfg, 6);
        c.Field("config", cfg.str());
      }
      {
        std::ostringstream ts;
        JsonObj t(ts, 6);
        t.Int("total_instructions", cr.trace_total_instructions);
        t.Int("total_events", cr.trace_total_events);
        t.Close();
        c.Field("trace_set", ts.str());
      }
      {
        std::ostringstream met;
        EmitCellMetrics(cr, met, 6);
        c.Field("metrics", met.str());
      }
      if (include_timing_) c.Num("sim_wall_seconds", cr.sim_wall_seconds);
      c.Close();
    }
    cells << "\n" << JsonObj::Pad(2) << "]";
    top.Field("cells", cells.str());
  }
  top.Close();
  os << "\n";
}

void CsvSink::Emit(const SweepReport& report, std::ostream& os) const {
  std::vector<std::string> header{"index"};
  for (const std::string& a : report.axis_names) header.push_back(a);
  // cfg_ prefix keeps config columns distinct from same-named axes.
  for (const char* c : kCsvConfigColumns) {
    header.emplace_back(std::string("cfg_") + c);
  }
  header.emplace_back("trace_total_instructions");
  header.emplace_back("trace_total_events");
  for (const MetricColumn& m : kMetricColumns) header.emplace_back(m.name);
  for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
    header.emplace_back(std::string("cpi_") +
                        coresim::BucketName(static_cast<coresim::Bucket>(b)));
  }
  if (include_timing_) header.emplace_back("sim_wall_seconds");

  TablePrinter table(std::move(header));
  for (const CellResult& cr : report.cells) {
    const coresim::SimResult& r = cr.result;
    std::vector<std::string> row{std::to_string(cr.cell.index)};
    for (const std::string& v : cr.cell.values) row.push_back(v);
    for (const char* c : kCsvConfigColumns) {
      row.push_back(ConfigText(cr.cell, c));
    }
    row.push_back(std::to_string(cr.trace_total_instructions));
    row.push_back(std::to_string(cr.trace_total_events));
    for (const MetricColumn& m : kMetricColumns) row.push_back(m.text(r));
    for (int b = 0; b < static_cast<int>(coresim::Bucket::kCount); ++b) {
      row.push_back(
          JsonDouble(r.CpiComponent(static_cast<coresim::Bucket>(b))));
    }
    if (include_timing_) row.push_back(JsonDouble(cr.sim_wall_seconds));
    table.AddRow(std::move(row));
  }
  table.PrintCsv(os);
}

void EmitPerfSummary(const SweepReport& report, std::ostream& os) {
  JsonObj o(os, 0);
  // v2: added schema_version + environment (v1 files have neither).
  o.Int("schema_version", 2);
  o.Str("bench", "sweep");
  o.Str("spec", report.spec_name);
  {
    std::ostringstream env;
    EmitEnvironment(env, 2);
    o.Field("environment", env.str());
  }
  o.Int("threads", report.threads);
  o.Int("cells", report.cells.size());
  o.Str("trace_bundle", report.bundle);
  // Transport that served the bundle (off/cold/mmap); the warm check.sh
  // pass, the warm golden tests and the benchmark's warm checks require
  // "mmap".
  o.Str("bundle_mode", report.bundle_mode);
  o.Int("trace_sets_built", report.trace_sets_built);
  // Per-phase wall clocks. bundle_load is serial; trace building overlaps
  // the sim pipeline (builder thread + workers), so build/sim are not
  // additive and wall_seconds is the end-to-end truth.
  {
    std::ostringstream sub;
    JsonObj p(sub, 2);
    p.Num("bundle_load_seconds", report.load_wall_seconds);
    p.Num("build_wall_seconds", report.build_wall_seconds);
    p.Num("sim_wall_seconds", report.sim_wall_seconds);
    p.Close();
    o.Field("phases", sub.str());
  }
  o.Num("wall_seconds", report.wall_seconds);
  // Host memory is the run's other end-to-end cost: the whole process's
  // high-water mark when the summary is written, and the minor page
  // faults it took to get there (reported only).
  o.Num("peak_rss_mb", PeakRssMb());
  o.Int("minor_page_faults", MinorPageFaults());
  o.Num("cells_per_second", report.cells_per_second());
  o.Int("events_replayed", report.events_replayed());
  o.Num("events_per_second", report.events_per_second());
  // Per-cell sim cost so a regression localizes to a cell, not a grid.
  {
    std::ostringstream cells;
    cells << "[";
    for (size_t i = 0; i < report.cells.size(); ++i) {
      const CellResult& cr = report.cells[i];
      cells << (i ? ",\n" : "\n") << JsonObj::Pad(4);
      JsonObj c(cells, 4);
      c.Int("index", cr.cell.index);
      c.Int("events_replayed", cr.result.events_replayed);
      c.Num("sim_wall_seconds", cr.sim_wall_seconds);
      c.Close();
    }
    cells << "\n" << JsonObj::Pad(2) << "]";
    o.Field("cells_detail", cells.str());
  }
  if (report.has_metrics) {
    std::ostringstream met;
    report.metrics.WriteJson(met, 2);
    o.Field("metrics", met.str());
  }
  o.Close();
  os << "\n";
}

std::unique_ptr<ResultSink> MakeSink(const std::string& format,
                                     bool include_timing) {
  if (format == "table") return std::make_unique<TableSink>(include_timing);
  if (format == "json") return std::make_unique<JsonSink>(include_timing);
  if (format == "csv") return std::make_unique<CsvSink>(include_timing);
  return nullptr;
}

}  // namespace stagedcmp::sweep
