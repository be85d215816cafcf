#include "obs/metrics.hpp"

#include <sstream>
#include <stdexcept>

namespace dpcp {
namespace {

using Metric = MetricsRegistry::Metric;

const char* const kKindNames[] = {"counter", "histogram", "window"};

void fold(std::int64_t& into, std::int64_t value) { into += value; }
void fold(IntHistogram& into, const IntHistogram& value) { into.merge(value); }
void fold(RollingQuantile& into, const RollingQuantile& value) {
  into.merge(value);
}

/// Folds `value` into `name`, which starts as `empty` when absent.
template <class T>
void add_to(std::map<std::string, Metric>& metrics, const std::string& name,
            const T& value, T empty) {
  Metric& metric = metrics.try_emplace(name, std::move(empty)).first->second;
  T* into = std::get_if<T>(&metric);
  if (!into)
    throw std::logic_error("MetricsRegistry: '" + name +
                           "' already names a " +
                           kKindNames[metric.index()]);
  fold(*into, value);
}

struct Summary {
  std::int64_t count, sum, p50, p90, p99, max;
};

/// A histogram's or a window's summary.  A window summarizes as the
/// histogram of its retained samples: both take nearest-rank
/// percentiles, so the figures are the same.
Summary summarize(const Metric& metric) {
  IntHistogram window_cells;
  const IntHistogram* h = std::get_if<IntHistogram>(&metric);
  if (!h) {
    for (std::int64_t v : std::get<RollingQuantile>(metric).samples_in_order())
      window_cells.add(v);
    h = &window_cells;
  }
  std::int64_t sum = 0;
  for (const auto& [v, c] : h->cells()) sum += v * c;
  return {h->count(),        sum,        h->percentile(50),
          h->percentile(90), h->percentile(99), h->max()};
}

}  // namespace

void MetricsRegistry::add(const std::string& name, std::int64_t value) {
  add_to(metrics_, name, value, std::int64_t{0});
}

void MetricsRegistry::add(const std::string& name, const IntHistogram& value) {
  add_to(metrics_, name, value, IntHistogram{});
}

void MetricsRegistry::add(const std::string& name,
                          const RollingQuantile& value) {
  add_to(metrics_, name, value, RollingQuantile(value.capacity()));
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  for (const auto& [name, metric] : o.metrics_)
    std::visit([&](const auto& value) { add(name, value); }, metric);
}

std::int64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) return 0;
  const std::int64_t* value = std::get_if<std::int64_t>(&it->second);
  return value ? *value : 0;
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  for (const auto& [name, metric] : metrics_) {
    if (const std::int64_t* value = std::get_if<std::int64_t>(&metric)) {
      os << "# TYPE " << name << " counter\n" << name << " " << *value << "\n";
      continue;
    }
    const Summary s = summarize(metric);
    os << "# TYPE " << name << " summary\n"
       << name << "{quantile=\"0.5\"} " << s.p50 << "\n"
       << name << "{quantile=\"0.9\"} " << s.p90 << "\n"
       << name << "{quantile=\"0.99\"} " << s.p99 << "\n"
       << name << "{quantile=\"1\"} " << s.max << "\n"
       << name << "_sum " << s.sum << "\n"
       << name << "_count " << s.count << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  const char* const sections[] = {"counters", "histograms", "windows"};
  for (std::size_t kind = 0; kind < 3; ++kind) {
    os << (kind ? "},\"" : "{\"") << sections[kind] << "\":{";
    const char* sep = "";
    for (const auto& [name, metric] : metrics_) {
      if (metric.index() != kind) continue;
      os << sep << "\"" << name << "\":";
      sep = ",";
      if (kind == 0) {
        os << std::get<std::int64_t>(metric);
        continue;
      }
      const Summary s = summarize(metric);
      os << "{\"count\":" << s.count << ",\"sum\":" << s.sum
         << ",\"p50\":" << s.p50 << ",\"p90\":" << s.p90
         << ",\"p99\":" << s.p99 << ",\"max\":" << s.max << "}";
    }
  }
  os << "}}";
  return os.str();
}

}  // namespace dpcp
