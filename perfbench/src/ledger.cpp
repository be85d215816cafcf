#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void add_layer_metrics(const std::string& workload, const Tracer& t,
                       const LayerCounters& c, RunReport* report) {
  RunReport& r = *report;
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };

  r.add("gen.self_s", t.self_s(kSpanGen), "s");
  r.add("gen.calls", count(t.calls(kSpanGen)), "count");
  r.add("gen.task_retries", count(c.gen_task_retries), "count");
  r.add("gen.useful_ratio",
        ratio(count(c.gen_tasks_kept),
              count(c.gen_tasks_kept + c.gen_task_retries)),
        "ratio");

  r.add("model.paths_s", t.self_s(kSpanPaths), "s");
  r.add("model.paths_calls", count(t.calls(kSpanPaths)), "count");
  r.add("model.paths_visited", count(c.paths_visited), "count");

  std::int64_t wcrt_total = 0;
  for (int k = 0; k < 5; ++k) {
    const std::string base = std::string("analysis.") + kKindTokens[k];
    r.add(base + ".wcrt_s", t.self_s(wcrt_span(k)), "s");
    r.add(base + ".wcrt_calls", count(c.wcrt_calls[k]), "count");
    r.add(base + ".bind_s", t.self_s(bind_span(k)), "s");
    r.add(base + ".binds", count(c.binds[k]), "count");
    wcrt_total += c.wcrt_calls[k];
  }
  r.add("analysis.prepare_s", t.self_s(kSpanPrepare), "s");
  r.add("analysis.reuse_ratio",
        ratio(count(c.diffs_unchanged),
              count(c.diffs_unchanged + c.diffs_invalidated)),
        "ratio");

  r.add("partition.self_s", t.self_s(kSpanPartition), "s");
  r.add("partition.rounds", count(c.rounds), "count");

  r.add("sim.self_s", t.self_s(kSpanSim), "s");
  r.add("sim.runs", count(t.calls(kSpanSim)), "count");
  r.add("sim.events", count(c.sim_events), "count");

  r.add("exp.validate_s", t.self_s(kSpanValidate), "s");
  r.add("exp.validate_calls", count(t.calls(kSpanValidate)), "count");
  r.add("exp.report_s", t.self_s(kSpanReport), "s");

  r.add("io.parse_s", t.self_s(kSpanParse), "s");
  r.add("io.parse_calls", count(t.calls(kSpanParse)), "count");
  r.add("io.bytes", count(c.io_bytes), "bytes");
  r.add("io.format_s", t.self_s(kSpanFormat), "s");

  r.add("opt.admit_s", t.self_s(kSpanAdmit), "s");
  r.add("opt.depart_s", t.self_s(kSpanDepart), "s");
  r.add("opt.oracle_calls", count(c.opt_oracle_calls), "count");
  r.add("opt.tasks_reused", count(c.opt_tasks_reused), "count");
  r.add("opt.repair_accepts", count(c.opt_repair_accepts), "count");
  r.add("opt.readmits", count(c.opt_readmits), "count");
  r.add("opt.accept_ratio",
        ratio(count(c.opt_accepted), count(c.opt_submitted)), "ratio");

  r.add("serve.self_s", c.serve_self_s, "s");

  const double wall = t.root_s();
  const double attributed = t.total_self_s(kSpanRequest);
  const double unattributed = wall - attributed;
  r.add("trace.wall_s", wall, "s");
  r.add("trace.untraced_s", c.untraced_s, "s");
  r.add("trace.overhead_ratio", ratio(wall, c.untraced_s), "ratio");
  r.add("trace.unattributed_s", unattributed, "s");
  r.add("trace.unattributed_ratio", ratio(unattributed, wall), "ratio");

  // Ledger table: self time per layer (span kinds grouped by their first
  // name component), largest first.
  std::vector<std::pair<std::string, double>> layers = {
      {"gen", t.self_s(kSpanGen)},
      {"model", t.self_s(kSpanPaths)},
      {"partition", t.self_s(kSpanPartition)},
      {"sim", t.self_s(kSpanSim)},
      {"exp", t.self_s(kSpanValidate) + t.self_s(kSpanReport)},
      {"io", t.self_s(kSpanParse) + t.self_s(kSpanFormat)},
      {"opt", t.self_s(kSpanAdmit) + t.self_s(kSpanDepart)},
  };
  double analysis = t.self_s(kSpanPrepare);
  for (int k = 0; k < 5; ++k)
    analysis += t.self_s(wcrt_span(k)) + t.self_s(bind_span(k));
  layers.push_back({"analysis", analysis});
  std::stable_sort(layers.begin(), layers.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::fprintf(stderr, "ledger %s: traced wall %.3f s, untraced %.3f s "
               "(overhead x%.3f), %lld oracle calls\n",
               workload.c_str(), wall, c.untraced_s, ratio(wall, c.untraced_s),
               static_cast<long long>(wcrt_total));
  std::fprintf(stderr, "  %-12s %10s %7s\n", "layer", "self_s", "share");
  for (const auto& [name, self] : layers)
    std::fprintf(stderr, "  %-12s %10.4f %6.1f%%\n", name.c_str(), self,
                 100.0 * ratio(self, wall));
  std::fprintf(stderr, "  %-12s %10.4f %6.1f%%\n", "unattributed",
               unattributed, 100.0 * ratio(unattributed, wall));
  if (c.serve_self_s != 0.0)
    std::fprintf(stderr, "  serve self (timed feed - io - opt): %.4f s\n",
                 c.serve_self_s);
}

}  // namespace perfbench
