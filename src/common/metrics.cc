#include "common/metrics.h"

#include <ostream>

#include "common/json.h"

namespace stagedcmp {

template <typename T>
T& MetricsRegistry::Resolve(std::map<std::string, std::unique_ptr<T>>* family,
                            const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = family->find(name);
    if (it != family->end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::unique_ptr<T>& slot = (*family)[name];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return Resolve(&counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return Resolve(&gauges_, name);
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name) {
  return Resolve(&histograms_, name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // The maps are ordered, so the snapshot comes out sorted by name (the
  // key for deterministic serialization). Taking the shared lock only
  // blocks first-time registrations, never metric updates.
  MetricsSnapshot snap;
  std::shared_lock<std::shared_mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->Value(), g->Peak()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->Snapshot()});
  }
  return snap;
}

uint64_t MetricsSnapshot::CounterOr(const std::string& name,
                                    uint64_t fallback) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return fallback;
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::FindGauge(
    const std::string& name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

void MetricsSnapshot::WriteJson(std::ostream& os, int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
  os << "{\n" << in1 << "\"schema_version\": " << kSchemaVersion << ",\n";

  os << in1 << "\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    os << (i ? ",\n" : "\n") << in2 << JsonQuote(counters[i].name) << ": "
       << counters[i].value;
  }
  os << (counters.empty() ? "" : "\n" + in1) << "},\n";

  os << in1 << "\"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? ",\n" : "\n") << in2 << JsonQuote(gauges[i].name)
       << ": {\"value\": " << gauges[i].value << ", \"peak\": "
       << gauges[i].peak << "}";
  }
  os << (gauges.empty() ? "" : "\n" + in1) << "},\n";

  os << in1 << "\"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramMetric::Merged& m = histograms[i].stats;
    os << (i ? ",\n" : "\n") << in2 << JsonQuote(histograms[i].name)
       << ": {\"count\": " << m.count << ", \"sum\": " << m.sum
       << ", \"mean\": " << JsonDouble(m.mean) << ", \"p50\": " << m.p50
       << ", \"p95\": " << m.p95 << ", \"p99\": " << m.p99
       << ", \"max\": " << m.max << "}";
  }
  os << (histograms.empty() ? "" : "\n" + in1) << "}\n" << pad << "}";
}

}  // namespace stagedcmp
