// admit-churn: one closed-loop client driving the line-protocol admission
// service (serve/server.hpp CommandSession) at server defaults.
//
// A stream is: set-up (draw heavy tasks from repeated generate_taskset()
// refills of Fig. 2 scenario (a) with 6 resources at 0.4*m per refill and
// DAGs of at most 40 vertices, serialize them to protocol text, and `load`
// the first two refills, which fills the platform), then 20 commands.  The
// client sends its next command only after the reply to the previous one
// is complete.  With at least three tasks resident it departs a random one
// after every rejected admission (the platform is full) and with
// probability 0.3 otherwise; in all other cases it admits the next task of
// its pool.  Residency thus hovers near capacity and the retry queue stays
// busy.  Streams repeat, each with its own sub-seed, until the run's time
// is up; short streams with bounded DAG sizes keep the per-run figures
// steady across seeds.
//
// The traced run replays each stream without the server front: it parses
// the same payloads (io) and drives an AdmissionController built with the
// options `load` builds (opt), then renders the server's reply lines from
// the decisions.  The rendered transcript must equal the server's byte for
// byte.
#include <optional>
#include <set>
#include <sstream>

#include "core/dpcp.hpp"
#include "io/taskset_io.hpp"
#include "ledger.hpp"
#include "opt/admission.hpp"
#include "serve/server.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dpcp;

constexpr int kResources = 6;
constexpr double kUtilFrac = 0.4;
constexpr int kVerticesMax = 40;
/// Refills loaded up front, so streams start near capacity.
constexpr int kLoadRefills = 2;
constexpr int kCommandsPerStream = 20;
constexpr double kDepartProb = 0.3;
/// Extra set-up repetitions of the first stream; setup_s is the median of
/// these and every stream's own set-up.
constexpr int kExtraSetups = 4;

/// One stream's generated inputs, as protocol text.
struct StreamInputs {
  std::vector<std::string> load_lines;                // the load payload
  std::vector<std::vector<std::string>> admit_lines;  // one task each
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

struct SetupSpans {
  Tracer* tracer = nullptr;
  int gen = 0, format = 0;
};

/// Draws the stream's tasks: the first kLoadRefills successful refills are
/// the initial workload, later refills feed one admission per task.
StreamInputs make_inputs(std::uint64_t stream_seed, const SetupSpans& spans,
                         LayerCounters* counters) {
  GenParams params;
  params.scenario = fig2_scenario('a');
  params.scenario.nr_min = kResources;
  params.scenario.nr_max = kResources;
  params.total_utilization = kUtilFrac * params.scenario.m;
  params.vertices_max = kVerticesMax;
  const Rng root = Rng(stream_seed).fork(3);
  StreamInputs in;
  TaskSet initial(kResources);
  int loaded = 0;
  std::uint64_t refills = 0;
  while (static_cast<int>(in.admit_lines.size()) < kCommandsPerStream) {
    Rng fork = root.fork(++refills);
    std::optional<TaskSet> ts;
    GenStats stats;
    if (spans.tracer) {
      Tracer::Span span(*spans.tracer, spans.gen);
      ts = generate_taskset(fork, params, &stats);
    } else {
      ts = generate_taskset(fork, params, &stats);
    }
    if (counters) counters->gen_task_retries += stats.task_retries;
    if (!ts) continue;
    if (counters) counters->gen_tasks_kept += ts->size();
    std::optional<Tracer::Span> span;
    if (spans.tracer) span.emplace(*spans.tracer, spans.format);
    if (loaded < kLoadRefills) {
      for (int i = 0; i < ts->size(); ++i) initial.adopt_task(ts->task(i));
      if (++loaded == kLoadRefills)
        in.load_lines = split_lines(taskset_to_text(initial));
      continue;
    }
    for (int i = 0; i < ts->size(); ++i) {
      TaskSet one(kResources);
      one.adopt_task(ts->task(i));
      in.admit_lines.push_back(split_lines(taskset_to_text(one)));
    }
  }
  in.admit_lines.resize(kCommandsPerStream);
  return in;
}

/// One command the client sent: an admission of pool task `task`, or a
/// departure of external id `id`.
struct Command {
  bool admit;
  int task;
  int id;
};

/// Everything one timed stream produced.
struct StreamRun {
  double wall_s = 0.0;       // one set-up plus the commands, wall clock
  double command_s = 0.0;    // the commands alone, CPU clock
  double feed_s = 0.0;       // CommandSession::feed wall time, load included
  std::vector<double> admit_ms, depart_ms;  // CPU clock
  std::vector<Command> commands;
  std::string transcript;    // every reply line, in order
  std::int64_t errors = 0;
};

/// Reads the reply lines of one command: tracks resident ids and counts
/// error replies.
void absorb_reply(const std::string& reply, std::set<int>* resident,
                  bool* last_rejected, std::int64_t* errors) {
  std::istringstream in(reply);
  std::string line;
  while (std::getline(in, line)) {
    int id = 0;
    char verdict[16] = {};
    if (std::sscanf(line.c_str(), "admit id=%d %15s", &id, verdict) == 2) {
      const bool accepted = std::string(verdict) == "accepted";
      if (accepted) resident->insert(id);
      *last_rejected = !accepted;
    } else if (std::sscanf(line.c_str(), "gone id=%d", &id) == 1) {
      resident->erase(id);
    } else if (line.rfind("error", 0) == 0) {
      ++*errors;
    }
  }
}

struct FeedTime {
  double wall_s, cpu_s;
};

/// Feeds `lines` and returns the time the session took.
FeedTime feed_all(CommandSession& session,
                  const std::vector<std::string>& lines) {
  const CpuClock::time_point c0 = CpuClock::now();
  const Clock::time_point t0 = Clock::now();
  for (const std::string& line : lines) session.feed(line);
  return {seconds_since(t0), seconds_since(c0)};
}

std::string take(std::ostringstream& out) {
  std::string s = out.str();
  out.str("");
  return s;
}

StreamRun timed_stream(std::uint64_t stream_seed, int setups,
                       CpuRotation* cpus, std::vector<double>* setup_samples) {
  StreamRun run;
  ServeOptions serve;  // server defaults: m=16, EP, repair 200, retry 16
  std::ostringstream out;
  std::unique_ptr<CommandSession> session;
  StreamInputs in;
  double setup_wall = 0.0;
  for (int rep = 0; rep < setups; ++rep) {
    cpus->next();
    const CpuClock::time_point c0 = CpuClock::now();
    const Clock::time_point t0 = Clock::now();
    in = make_inputs(stream_seed, {}, nullptr);
    out.str("");
    session = std::make_unique<CommandSession>(out, serve);
    std::vector<std::string> load = {"load"};
    load.insert(load.end(), in.load_lines.begin(), in.load_lines.end());
    load.push_back(".");
    run.feed_s = feed_all(*session, load).wall_s;
    setup_wall = seconds_since(t0);
    setup_samples->push_back(seconds_since(c0));
  }
  const CpuClock::time_point commands_cpu = CpuClock::now();
  const Clock::time_point commands_wall = Clock::now();

  std::set<int> resident;
  bool last_rejected = false;
  run.transcript = take(out);
  absorb_reply(run.transcript, &resident, &last_rejected, &run.errors);

  Rng events = Rng(stream_seed).fork(1);
  int next_task = 0;
  for (int c = 0; c < kCommandsPerStream; ++c) {
    const bool depart = resident.size() >= 3 &&
                        (last_rejected || events.bernoulli(kDepartProb));
    FeedTime dt{};
    if (depart) {
      auto it = resident.begin();
      std::advance(it, events.uniform_int(
                           0, static_cast<std::int64_t>(resident.size()) - 1));
      const int id = *it;
      last_rejected = false;
      run.commands.push_back({false, -1, id});
      dt = feed_all(*session, {"depart " + std::to_string(id)});
      run.depart_ms.push_back(dt.cpu_s * 1e3);
    } else {
      const int task = next_task++;
      run.commands.push_back({true, task, -1});
      std::vector<std::string> lines = {"admit"};
      const auto& body = in.admit_lines[static_cast<std::size_t>(task)];
      lines.insert(lines.end(), body.begin(), body.end());
      lines.push_back(".");
      dt = feed_all(*session, lines);
      run.admit_ms.push_back(dt.cpu_s * 1e3);
    }
    run.feed_s += dt.wall_s;
    const std::string reply = take(out);
    absorb_reply(reply, &resident, &last_rejected, &run.errors);
    run.transcript += reply;
  }
  run.command_s = seconds_since(commands_cpu);
  run.wall_s = setup_wall + seconds_since(commands_wall);
  return run;
}

// --- traced direct replay ---------------------------------------------------

/// The server's reply line for one admission decision.
void render_decision(const AdmitDecision& d, std::ostream& out) {
  out << "admit id=" << d.id << (d.accepted ? " accepted" : " rejected")
      << " rung=" << admit_rung_token(d.rung) << " calls=" << d.cost
      << " queued=" << (d.queued ? 1 : 0) << "\n";
  if (d.evicted_id >= 0) out << "evict id=" << d.evicted_id << "\n";
}

struct ReplaySpans {
  int request, gen, format, parse, admit, depart;
  explicit ReplaySpans(Tracer& t)
      : request(t.kind(kSpanRequest)), gen(t.kind(kSpanGen)),
        format(t.kind(kSpanFormat)), parse(t.kind(kSpanParse)),
        admit(t.kind(kSpanAdmit)), depart(t.kind(kSpanDepart)) {}
};

std::string join_payload(const std::vector<std::string>& lines) {
  std::string block;
  for (const std::string& line : lines) {
    block += line;
    block += '\n';
  }
  return block;
}

/// Replays a timed stream's commands straight into an AdmissionController
/// and returns the reply transcript the server would have written.
std::string traced_stream(std::uint64_t stream_seed, const StreamRun& timed,
                          Tracer& t, const ReplaySpans& k,
                          LayerCounters* counters) {
  Tracer::Span root(t, k.request);
  const StreamInputs in =
      make_inputs(stream_seed, {&t, k.gen, k.format}, counters);
  const ServeOptions serve;
  AdmitOptions admit;
  admit.m = serve.m;
  admit.kind = serve.kind;
  admit.analysis = serve.analysis;
  admit.repair_evals = serve.repair_evals;
  admit.retry_capacity = serve.retry_capacity;
  admit.seed = serve.seed;

  std::ostringstream out;
  const auto parse = [&](const std::vector<std::string>& lines) {
    const std::string block = join_payload(lines);
    counters->io_bytes += static_cast<std::int64_t>(block.size());
    Tracer::Span span(t, k.parse);
    return taskset_from_text(block).value();
  };

  const TaskSet initial = parse(in.load_lines);
  std::optional<AdmissionController> ctrl;
  int accepted = 0;
  {
    Tracer::Span span(t, k.admit);
    ctrl.emplace(initial.num_resources(), admit);
  }
  for (int i = 0; i < initial.size(); ++i) {
    AdmitDecision d;
    {
      Tracer::Span span(t, k.admit);
      d = ctrl->admit(initial.task(i));
    }
    render_decision(d, out);
    if (d.accepted) ++accepted;
  }
  out << "ok load resources=" << initial.num_resources()
      << " submitted=" << initial.size() << " accepted=" << accepted
      << " resident=" << ctrl->resident() << "\n";

  for (const Command& c : timed.commands) {
    if (c.admit) {
      const TaskSet ts =
          parse(in.admit_lines[static_cast<std::size_t>(c.task)]);
      AdmitDecision d;
      {
        Tracer::Span span(t, k.admit);
        d = ctrl->admit(ts.task(0));
      }
      render_decision(d, out);
      out << "ok admit submitted=1 accepted=" << (d.accepted ? 1 : 0)
          << " resident=" << ctrl->resident() << "\n";
      continue;
    }
    DepartOutcome gone;
    {
      Tracer::Span span(t, k.depart);
      gone = ctrl->depart(c.id);
    }
    out << "gone id=" << c.id << (gone.was_resident ? " resident" : " queued")
        << "\n";
    for (const AdmitDecision& d : gone.readmitted) render_decision(d, out);
    out << "ok depart readmitted=" << gone.readmitted.size()
        << " calls=" << gone.cost << " resident=" << ctrl->resident() << "\n";
  }

  const AdmissionStats& s = ctrl->stats();
  counters->opt_submitted += s.submitted;
  counters->opt_accepted += s.accepted;
  counters->opt_oracle_calls += s.oracle_calls;
  counters->opt_tasks_reused += s.tasks_reused;
  counters->opt_repair_accepts += s.repair_accepts;
  counters->opt_readmits += s.readmits;
  counters->wcrt_calls[0] += s.oracle_calls;
  counters->binds[0] += ctrl->oracle().binds();
  counters->diffs_unchanged += ctrl->oracle().diffs_unchanged();
  counters->diffs_invalidated += ctrl->oracle().diffs_invalidated();
  return out.str();
}

void check_replay(const StreamRun& timed, const std::string& replayed,
                  std::uint64_t stream, RunReport* report) {
  if (replayed != timed.transcript)
    report->fail_check("stream " + std::to_string(stream) +
                       ": direct-controller replay disagrees with the "
                       "server's reply lines");
}

}  // namespace

RunReport run_churn_workload(const RunConfig& config) {
  RunReport report;
  std::vector<double> setups;
  std::vector<double> admit_ms, depart_ms, rss_samples;
  double command_s = 0.0;
  std::int64_t commands = 0;
  StreamRun first;

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<ReplaySpans> spans;
  LayerCounters counters;
  if (config.trace) {
    tracer = std::make_unique<Tracer>();
    spans = std::make_unique<ReplaySpans>(*tracer);
  }

  CpuRotation cpus;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t s = 0; s == 0 || seconds_since(start) < config.seconds;
       ++s) {
    const std::uint64_t stream_seed = sub_seed(config.seed, s);
    StreamRun run =
        timed_stream(stream_seed, s == 0 ? 1 + kExtraSetups : 1, &cpus,
                     &setups);
    report.attempted += 1 + static_cast<std::int64_t>(run.commands.size());
    report.failed += run.errors;
    if (run.errors > 0)
      report.fail_check("stream " + std::to_string(s) + ": " +
                        std::to_string(run.errors) + " error replies");
    admit_ms.insert(admit_ms.end(), run.admit_ms.begin(), run.admit_ms.end());
    depart_ms.insert(depart_ms.end(), run.depart_ms.begin(),
                     run.depart_ms.end());
    command_s += run.command_s;
    rss_samples.push_back(rss_mb());
    commands += static_cast<std::int64_t>(run.commands.size());

    if (config.trace) {
      tracer->set_request(static_cast<std::int64_t>(s));
      const double io_opt_before = tracer->self_s(kSpanParse) +
                                   tracer->self_s(kSpanAdmit) +
                                   tracer->self_s(kSpanDepart);
      const std::string replayed =
          traced_stream(stream_seed, run, *tracer, *spans, &counters);
      check_replay(run, replayed, s, &report);
      counters.untraced_s += run.wall_s;
      // serve = CommandSession::feed time minus the io and opt time of the
      // matching direct replay.
      counters.serve_self_s +=
          run.feed_s - (tracer->self_s(kSpanParse) +
                        tracer->self_s(kSpanAdmit) +
                        tracer->self_s(kSpanDepart) - io_opt_before);
    }
    if (s == 0) first = std::move(run);
  }
  Digest digest;
  digest.add(first.transcript);
  std::fprintf(stderr, "stream 0 digest %s\n", digest.hex().c_str());
  if (!config.expect_digest.empty() && digest.hex() != config.expect_digest)
    report.fail_check("stream 0 digest " + digest.hex() + " != pinned " +
                      config.expect_digest);

  if (config.trace) {
    add_layer_metrics(config.workload, *tracer, counters, &report);
    if (!config.trace_out.empty() &&
        !tracer->write_chrome_trace(config.trace_out))
      std::fprintf(stderr, "warning: cannot write %s\n",
                   config.trace_out.c_str());
    return report;
  }

  const double p90 = supported_percentile(admit_ms.size(), 90.0);
  std::fprintf(stderr,
               "admit-churn: %lld commands (%zu admits, %zu departs), admit "
               "latency p50/p%.0f over %zu samples; depart p50 %.3f ms, "
               "p90 %.3f ms\n",
               static_cast<long long>(commands), admit_ms.size(),
               depart_ms.size(), p90, admit_ms.size(),
               percentile(depart_ms, 50.0), percentile(depart_ms, 90.0));
  std::fprintf(stderr, "admit latency deciles (ms):");
  for (int d = 1; d <= 9; ++d)
    std::fprintf(stderr, " %.2f", percentile(admit_ms, 10.0 * d));
  std::fprintf(stderr, "\n");
  report.add("setup_s", median(setups), "s");
  report.add("throughput_per_s", static_cast<double>(commands) / command_s,
             "1/s");
  report.add("latency_p50_ms", percentile(admit_ms, 50.0), "ms");
  report.add("latency_p90_ms", percentile(admit_ms, p90), "ms");
  std::fprintf(stderr, "resident memory: median after each stream %.3f MiB, "
               "peak %.3f MiB\n", median(rss_samples), peak_rss_mb());

  // Untraced runs replay stream 0 once, after the measured time, so every
  // run cross-checks the server against the direct replay.
  Tracer check_tracer(0);
  LayerCounters check_counters;
  check_replay(first,
               traced_stream(sub_seed(config.seed, 0), first, check_tracer,
                             ReplaySpans(check_tracer), &check_counters),
               0, &report);
  return report;
}

}  // namespace perfbench
