#include "obs/metrics.hpp"

#include <sstream>
#include <stdexcept>

#include "analysis/prepared.hpp"

namespace dpcp {
namespace {

const char* kind_token(int kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "histogram";
    case 2:
      return "window";
  }
  return "?";
}

/// Sum of value * count over the histogram cells (IntHistogram tracks
/// cells, not a running sum; exact either way).
std::int64_t hist_sum(const IntHistogram& h) {
  std::int64_t sum = 0;
  for (const auto& [v, c] : h.cells()) sum += v * c;
  return sum;
}

struct SummaryView {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
  std::int64_t max = 0;
};

SummaryView summarize(const IntHistogram& h) {
  SummaryView s;
  s.count = h.count();
  if (!s.count) return s;
  s.sum = hist_sum(h);
  s.p50 = h.percentile(50);
  s.p90 = h.percentile(90);
  s.p99 = h.percentile(99);
  s.max = h.max();
  return s;
}

SummaryView summarize(const RollingQuantile& w) {
  SummaryView s;
  s.count = static_cast<std::int64_t>(w.size());
  if (!s.count) return s;
  for (std::int64_t v : w.samples_in_order()) s.sum += v;
  s.p50 = w.percentile(50);
  s.p90 = w.percentile(90);
  s.p99 = w.percentile(99);
  s.max = w.percentile(100);
  return s;
}

void render_summary(std::ostream& os, const std::string& name,
                    const SummaryView& s) {
  os << name << "{quantile=\"0.5\"} " << s.p50 << "\n";
  os << name << "{quantile=\"0.9\"} " << s.p90 << "\n";
  os << name << "{quantile=\"0.99\"} " << s.p99 << "\n";
  os << name << "{quantile=\"1\"} " << s.max << "\n";
  os << name << "_sum " << s.sum << "\n";
  os << name << "_count " << s.count << "\n";
}

void render_summary_json(std::ostream& os, const SummaryView& s) {
  os << "{\"count\":" << s.count << ",\"sum\":" << s.sum << ",\"p50\":"
     << s.p50 << ",\"p90\":" << s.p90 << ",\"p99\":" << s.p99
     << ",\"max\":" << s.max << "}";
}

}  // namespace

std::size_t MetricsRegistry::register_name(const std::string& name,
                                           Kind kind) {
  const auto it = names_.find(name);
  if (it != names_.end()) {
    if (it->second.first != kind)
      throw std::logic_error(
          "MetricsRegistry: '" + name + "' already registered as " +
          kind_token(static_cast<int>(it->second.first)) +
          ", cannot re-register as " + kind_token(static_cast<int>(kind)));
    return it->second.second;
  }
  std::size_t index = 0;
  switch (kind) {
    case Kind::kCounter:
      index = counter_values_.size();
      counter_values_.push_back(0);
      break;
    case Kind::kHistogram:
      index = hist_values_.size();
      hist_values_.emplace_back();
      break;
    case Kind::kWindow:
      // Caller appends the RollingQuantile itself (it needs a capacity).
      index = window_values_.size();
      break;
  }
  names_.emplace(name, std::make_pair(kind, index));
  return index;
}

MetricsRegistry::Counter MetricsRegistry::counter(const std::string& name) {
  return Counter{register_name(name, Kind::kCounter)};
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    const std::string& name) {
  return Histogram{register_name(name, Kind::kHistogram)};
}

MetricsRegistry::Window MetricsRegistry::window(const std::string& name,
                                                std::size_t capacity) {
  const std::size_t before = window_values_.size();
  const std::size_t index = register_name(name, Kind::kWindow);
  if (window_values_.size() == before && index == before)
    window_values_.emplace_back(capacity);
  return Window{index};
}

std::int64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = names_.find(name);
  if (it == names_.end() || it->second.first != Kind::kCounter) return 0;
  return counter_values_[it->second.second];
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  for (const auto& [name, entry] : o.names_) {
    const auto [kind, oi] = entry;
    switch (kind) {
      case Kind::kCounter:
        inc(counter(name), o.counter_values_[oi]);
        break;
      case Kind::kHistogram:
        hist_values_[histogram(name).index].merge(o.hist_values_[oi]);
        break;
      case Kind::kWindow: {
        const RollingQuantile& ow = o.window_values_[oi];
        window_values_[window(name, ow.capacity()).index].merge(ow);
        break;
      }
    }
  }
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  for (const auto& [name, entry] : names_) {
    const auto [kind, index] = entry;
    switch (kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << counter_values_[index] << "\n";
        break;
      case Kind::kHistogram:
        os << "# TYPE " << name << " summary\n";
        render_summary(os, name, summarize(hist_values_[index]));
        break;
      case Kind::kWindow:
        os << "# TYPE " << name << " summary\n";
        render_summary(os, name, summarize(window_values_[index]));
        break;
    }
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, entry] : names_) {
    if (entry.first != Kind::kCounter) continue;
    os << (first ? "" : ",") << "\"" << name
       << "\":" << counter_values_[entry.second];
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, entry] : names_) {
    if (entry.first != Kind::kHistogram) continue;
    os << (first ? "" : ",") << "\"" << name << "\":";
    render_summary_json(os, summarize(hist_values_[entry.second]));
    first = false;
  }
  os << "},\"windows\":{";
  first = true;
  for (const auto& [name, entry] : names_) {
    if (entry.first != Kind::kWindow) continue;
    os << (first ? "" : ",") << "\"" << name << "\":";
    render_summary_json(os, summarize(window_values_[entry.second]));
    first = false;
  }
  os << "}}";
  return os.str();
}

void fold_cache_stats(const CacheStats& stats, const PreparedAnalysis& oracle,
                      MetricsRegistry& reg) {
  reg.inc(reg.counter("dpcp_analysis_memo_hits_total"),
          static_cast<std::int64_t>(stats.memo_hits));
  reg.inc(reg.counter("dpcp_analysis_memo_misses_total"),
          static_cast<std::int64_t>(stats.memo_misses));
  reg.inc(reg.counter("dpcp_analysis_slab_reuses_total"),
          oracle.diffs_unchanged());
  reg.inc(reg.counter("dpcp_analysis_slab_rebuilds_total"),
          oracle.diffs_invalidated());
}

}  // namespace dpcp
