#include "exp/validate.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace dpcp {

namespace {

// Ratios are clamped here before quantization: 1e9 ppm = a response one
// thousand times the bound.  Anything beyond is pathological and only
// needs to stay pathological after integer accumulation (the clamp keeps
// sum_ppm far from int64 overflow even over 1e7 observations).
constexpr std::int64_t kMaxRatioPpm = 1'000'000'000;

std::int64_t ratio_ppm(Time observed, Time bound) {
  if (bound <= 0) return kMaxRatioPpm;
  const __int128 ppm =
      static_cast<__int128>(observed) * 1'000'000 / static_cast<__int128>(bound);
  if (ppm >= kMaxRatioPpm) return kMaxRatioPpm;
  return static_cast<std::int64_t>(ppm);
}

// Every SimConfig field by name.  Binding them all fails to compile when
// SimConfig gains a field, until the run table compares that one too.
auto config_fields(const SimConfig& c) {
  const auto& [protocol, max_events, horizon, hard_stop, release_jitter,
               execution_scale, seed, max_trace_entries] = c;
  return std::tie(protocol, max_events, horizon, hard_stop, release_jitter,
                  execution_scale, seed, max_trace_entries);
}

}  // namespace

std::optional<SimProtocol> sim_protocol_for(AnalysisKind kind) {
  switch (kind) {
    case AnalysisKind::kDpcpPEp:
    case AnalysisKind::kDpcpPEn:
      return SimProtocol::kDpcpP;
    case AnalysisKind::kSpinSon:
      return SimProtocol::kSpinFifo;
    case AnalysisKind::kLpp:    // suspension-based semaphores: not modelled
    case AnalysisKind::kFedFp:  // ignores resources by design
      return std::nullopt;
  }
  return std::nullopt;
}

// ---- GapStat ---------------------------------------------------------------

void GapStat::add(Time observed, Time bound) {
  const std::int64_t ppm = ratio_ppm(observed, bound);
  ++count_;
  sum_ppm_ += ppm;
  max_ppm_ = std::max(max_ppm_, ppm);
  const std::size_t bin = std::min(
      kBins - 1, static_cast<std::size_t>(ppm / kBinWidthPpm));
  ++bins_[bin];
}

void GapStat::merge(const GapStat& o) {
  count_ += o.count_;
  sum_ppm_ += o.sum_ppm_;
  max_ppm_ = std::max(max_ppm_, o.max_ppm_);
  for (std::size_t b = 0; b < kBins; ++b) bins_[b] += o.bins_[b];
}

double GapStat::mean() const {
  return count_ ? static_cast<double>(sum_ppm_) /
                      (1e6 * static_cast<double>(count_))
                : 0.0;
}

double GapStat::max() const {
  return max_ppm_ < 0 ? 0.0 : static_cast<double>(max_ppm_) / 1e6;
}

double GapStat::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::min(100.0, std::max(0.0, p)) / 100.0 *
             static_cast<double>(count_) +
             0.5));
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    seen += bins_[b];
    if (seen >= rank) {
      if (b == kBins - 1) return max();  // overflow bin: report the max
      // Upper bin edge, clamped so a percentile never exceeds the exact
      // maximum (the top observation sits somewhere inside its bin).
      return std::min(max(),
                      static_cast<double>((static_cast<std::int64_t>(b) + 1) *
                                          kBinWidthPpm) /
                          1e6);
    }
  }
  return max();
}

// ---- aggregate merges ------------------------------------------------------

void SimPointStats::merge(const SimPointStats& o) {
  simulated += o.simulated;
  unpartitionable += o.unpartitionable;
  deadline_misses += o.deadline_misses;
  unfinished += o.unfinished;
  invariant_violations += o.invariant_violations;
  max_response = std::max(max_response, o.max_response);
}

void ValidationPointStats::add_ratio(Time observed, Time bound) {
  const std::int64_t ppm = ratio_ppm(observed, bound);
  ++gap_count;
  gap_sum_ppm += ppm;
  gap_max_ppm = std::max(gap_max_ppm, ppm);
}

void ValidationPointStats::merge(const ValidationPointStats& o) {
  checked += o.checked;
  unsound += o.unsound;
  gap_count += o.gap_count;
  gap_sum_ppm += o.gap_sum_ppm;
  gap_max_ppm = std::max(gap_max_ppm, o.gap_max_ppm);
}

double ValidationPointStats::gap_mean() const {
  return gap_count ? static_cast<double>(gap_sum_ppm) /
                         (1e6 * static_cast<double>(gap_count))
                   : 0.0;
}

double ValidationPointStats::gap_max() const {
  return gap_max_ppm < 0 ? 0.0 : static_cast<double>(gap_max_ppm) / 1e6;
}

void AnalysisValidation::merge(const AnalysisValidation& o) {
  accepts_checked += o.accepts_checked;
  unsound_accepts += o.unsound_accepts;
  invariant_violations += o.invariant_violations;
  gap.merge(o.gap);
}

std::string ValidationReport::to_text() const {
  Table table({"analysis", "sim", "accepts checked", "unsound", "inv-viol",
               "gap mean", "p50", "p90", "p99", "max"});
  for (const AnalysisValidation& v : analyses) {
    if (!v.comparable) {
      table.add_row({v.name, "-", "-", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    table.add_row(
        {v.name, "yes",
         strfmt("%lld", static_cast<long long>(v.accepts_checked)),
         strfmt("%lld", static_cast<long long>(v.unsound_accepts)),
         strfmt("%lld", static_cast<long long>(v.invariant_violations)),
         strfmt("%.3f", v.gap.mean()), strfmt("%.3f", v.gap.percentile(50)),
         strfmt("%.3f", v.gap.percentile(90)),
         strfmt("%.3f", v.gap.percentile(99)), strfmt("%.3f", v.gap.max())});
  }
  std::string out = table.to_text();
  if (!failures.empty())
    out += strfmt("UNSOUND: %zu analysis accept(s) refuted by simulation\n",
                  failures.size());
  return out;
}

// ---- per-sample machinery --------------------------------------------------

SimVerdict classify_sim(const SimResult& res) {
  SimVerdict v;
  v.deadline_misses = res.total_deadline_misses();
  v.drained = res.drained;
  v.invariant_violations =
      res.lemma1_violations + res.mutual_exclusion_violations +
      res.work_conserving_violations + res.ceiling_violations;
  v.schedulable = v.drained && v.deadline_misses == 0;
  return v;
}

SimConfig sample_sim_config(const SimBackendOptions& options,
                            const TaskSet& ts, Rng& rng) {
  SimConfig cfg;
  cfg.horizon = options.horizon;
  // Overloaded sets stop accumulating backlog at the horizon, so the drain
  // phase is bounded; the hard stop only guards runaway scenarios.
  cfg.hard_stop = std::max(options.horizon * 10, options.horizon + millis(1000));
  if (options.mode == SimSweepMode::kRandom && ts.size() > 0) {
    Time min_period = ts.task(0).period();
    for (int i = 1; i < ts.size(); ++i)
      min_period = std::min(min_period, ts.task(i).period());
    cfg.release_jitter = min_period / 8;
    cfg.execution_scale = 0.5 + 0.5 * rng.canonical();
    cfg.seed = static_cast<std::uint64_t>(
        rng.uniform_int(0, INT64_MAX));
  }
  return cfg;
}

const SimResult& SimRunTable::run(const Partition& part,
                                  const SimConfig& config) {
  for (const Run& r : runs_)
    if (config_fields(r.config) == config_fields(config) &&
        r.partition == part)
      return r.result;
  runs_.push_back({part, config, simulate(ts_, part, config)});
  return runs_.back().result;
}

CrossCheckResult cross_check_accept(const PartitionOutcome& outcome,
                                    const SimResult& res) {
  assert(res.task.size() == outcome.wcrt.size());
  CrossCheckResult cc;
  cc.verdict = classify_sim(res);
  for (std::size_t i = 0; i < res.task.size(); ++i) {
    const TaskSimStats& st = res.task[i];
    const Time bound = outcome.wcrt[i];
    if (st.jobs_completed == 0 || bound >= kTimeInfinity || bound <= 0)
      continue;
    cc.ratios.emplace_back(st.max_response, bound);
    // Largest observed/bound ratio by exact cross-multiplication.
    if (cc.worst_task < 0 ||
        static_cast<__int128>(st.max_response) * cc.worst_bound >
            static_cast<__int128>(cc.worst_observed) * bound) {
      cc.worst_task = static_cast<int>(i);
      cc.worst_observed = st.max_response;
      cc.worst_bound = bound;
    }
  }
  const bool bound_exceeded =
      cc.worst_task >= 0 && cc.worst_observed > cc.worst_bound;
  cc.unsound = cc.verdict.deadline_misses > 0 || !cc.verdict.drained ||
               bound_exceeded;
  return cc;
}

}  // namespace dpcp
