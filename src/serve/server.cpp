#include "serve/server.hpp"

#include <exception>
#include <istream>
#include <ostream>
#include <sstream>

#include "io/taskset_io.hpp"
#include "opt/admission.hpp"
#include "opt/snapshot.hpp"
#include "util/parse.hpp"

namespace dpcp {
namespace {

/// Splits one command line into whitespace tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ls(line);
  std::string tok;
  while (ls >> tok) out.push_back(tok);
  return out;
}

/// Whole-string external id: any int32, nothing else (util/parse is
/// strict about signs, garbage, and range — including INT32_MIN, which a
/// hand-rolled negate-after-accumulate loop here once rejected).
bool parse_id(const std::string& tok, int* out) {
  const auto v = parse_int(tok, INT32_MIN, INT32_MAX);
  if (!v) return false;
  *out = static_cast<int>(*v);
  return true;
}

}  // namespace

CommandSession::CommandSession(std::ostream& out, const ServeOptions& options)
    : out_(out), options_(options) {}

CommandSession::~CommandSession() = default;

void CommandSession::error(const std::string& message) {
  out_ << "error " << message << "\n";
  saw_error_ = true;
  if (options_.strict) done_ = true;
}

bool CommandSession::loaded() {
  if (ctrl_) return true;
  error("no workload loaded (use 'load')");
  return false;
}

void CommandSession::feed(const std::string& line) {
  if (done_) return;
  // Fault isolation: a command that throws (a restore that fails
  // re-certification, an allocation failure) gets an `error` reply, and
  // the session, like every other session behind the mux, carries on.
  try {
    if (payload_state_ != Payload::kNone) {
      if (line == ".") {
        finish_payload();
      } else {
        payload_.append(line);
        payload_.push_back('\n');
      }
      return;
    }
    const std::vector<std::string> cmd = tokenize(line);
    if (cmd.empty()) return;  // blank lines are free
    if (cmd[0] == "quit") {
      out_ << "ok quit\n";
      done_ = true;
      return;
    }
    dispatch(cmd);
  } catch (const std::exception& e) {
    error(e.what());
  }
}

void CommandSession::finish() {
  if (done_) return;
  if (payload_state_ != Payload::kNone) {
    // The stream ended inside an announced payload block: that is a
    // framing error regardless of what the command would have answered.
    payload_state_ = Payload::kNone;
    error("unterminated payload (expected '.')");
  }
  done_ = true;
}

void CommandSession::dispatch(const std::vector<std::string>& cmd) {
  if (cmd[0] == "load" || cmd[0] == "admit" || cmd[0] == "restore") {
    if (cmd.size() != 1) {
      error("usage: " + cmd[0] + " (payload block follows)");
      return;
    }
    payload_.clear();
    if (cmd[0] == "load")
      payload_state_ = Payload::kLoad;
    else if (cmd[0] == "restore")
      payload_state_ = Payload::kRestore;
    else
      payload_state_ = Payload::kAdmit;
    return;
  }
  if (cmd[0] == "depart") return do_depart(cmd);
  if (cmd[0] == "query") return do_query(cmd);
  if (cmd[0] == "stats") return do_stats(cmd);
  if (cmd[0] == "slo") return do_slo(cmd);
  if (cmd[0] == "metrics") return do_metrics(cmd);
  if (cmd[0] == "trace") return do_trace(cmd);
  if (cmd[0] == "snapshot") return do_snapshot(cmd);
  error("unknown command '" + cmd[0] + "'");
}

void CommandSession::finish_payload() {
  const Payload state = payload_state_;
  payload_state_ = Payload::kNone;
  std::string block;
  block.swap(payload_);
  switch (state) {
    case Payload::kNone:
      return;
    case Payload::kLoad:
      return do_load(block);
    case Payload::kAdmit:
      return do_admit(block);
    case Payload::kRestore:
      return do_restore(block);
  }
}

void CommandSession::emit_decision(const AdmitDecision& d) {
  out_ << "admit id=" << d.id << (d.accepted ? " accepted" : " rejected")
       << " rung=" << admit_rung_token(d.rung) << " calls=" << d.cost
       << " queued=" << (d.queued ? 1 : 0) << "\n";
  // The retry queue was full: the oldest parked task was dropped to make
  // room.  Silent before; now the owning client hears about it.
  if (d.evicted_id >= 0) out_ << "evict id=" << d.evicted_id << "\n";
}

/// Admits every task of `ts` in file order; returns the accept count.
int CommandSession::admit_all(const TaskSet& ts) {
  int accepted = 0;
  for (int i = 0; i < ts.size(); ++i) {
    const AdmitDecision d = ctrl_->admit(ts.task(i));
    emit_decision(d);
    if (d.accepted) ++accepted;
  }
  return accepted;
}

void CommandSession::do_load(const std::string& block) {
  std::string parse_error;
  const auto ts = taskset_from_text(block, &parse_error);
  if (!ts) {
    error("parse: " + parse_error);
    return;
  }
  ctrl_ = std::make_unique<AdmissionController>(ts->num_resources(), options_);
  const int accepted = admit_all(*ts);
  out_ << "ok load resources=" << ts->num_resources()
       << " submitted=" << ts->size() << " accepted=" << accepted
       << " resident=" << ctrl_->resident() << "\n";
}

void CommandSession::do_admit(const std::string& block) {
  if (!loaded()) return;
  std::string parse_error;
  const auto ts = taskset_from_text(block, &parse_error);
  if (!ts) {
    error("parse: " + parse_error);
    return;
  }
  if (ts->num_resources() != ctrl_->taskset().num_resources()) {
    std::ostringstream msg;
    msg << "resource arity " << ts->num_resources()
        << " != loaded workload's " << ctrl_->taskset().num_resources();
    error(msg.str());
    return;
  }
  const int accepted = admit_all(*ts);
  out_ << "ok admit submitted=" << ts->size() << " accepted=" << accepted
       << " resident=" << ctrl_->resident() << "\n";
}

void CommandSession::do_restore(const std::string& block) {
  std::string parse_error;
  const auto snap = snapshot_from_text(block, &parse_error);
  if (!snap) {
    error("parse: " + parse_error);
    return;
  }
  ctrl_ = std::make_unique<AdmissionController>(*snap);
  out_ << "ok restore resident=" << ctrl_->resident()
       << " retry=" << ctrl_->retry_queue_size() << "\n";
}

void CommandSession::do_depart(const std::vector<std::string>& cmd) {
  int id = 0;
  if (cmd.size() != 2 || !parse_id(cmd[1], &id)) {
    error("usage: depart <id>");
    return;
  }
  if (!loaded()) return;
  const DepartOutcome gone = ctrl_->depart(id);
  if (!gone.found) {
    error("unknown id " + std::to_string(id));
    return;
  }
  out_ << "gone id=" << id << (gone.was_resident ? " resident" : " queued")
       << "\n";
  for (const AdmitDecision& d : gone.readmitted) emit_decision(d);
  out_ << "ok depart readmitted=" << gone.readmitted.size()
       << " calls=" << gone.cost << " resident=" << ctrl_->resident()
       << "\n";
}

void CommandSession::do_query(const std::vector<std::string>& cmd) {
  if (cmd.size() != 1) {
    error("usage: query");
    return;
  }
  if (!loaded()) return;
  const TaskSet& ts = ctrl_->taskset();
  for (int i = 0; i < ts.size(); ++i) {
    out_ << "task id=" << ctrl_->external_id(i)
         << " period=" << ts.task(i).period()
         << " deadline=" << ts.task(i).deadline()
         << " wcrt=" << ctrl_->wcrt()[static_cast<std::size_t>(i)]
         << " cluster=";
    const auto& cl = ctrl_->partition().cluster(i);
    for (std::size_t k = 0; k < cl.size(); ++k)
      out_ << (k ? "," : "") << cl[k];
    out_ << "\n";
  }
  out_ << "ok query resident=" << ctrl_->resident()
       << " retry=" << ctrl_->retry_queue_size() << "\n";
}

void CommandSession::do_stats(const std::vector<std::string>& cmd) {
  if (cmd.size() != 1) {
    error("usage: stats");
    return;
  }
  if (!loaded()) return;
  // The cost line appears only once an SLO was configured, so sessions
  // that never touch `slo` keep the original one-line stats reply.
  if (ctrl_->slo_percentile() > 0) {
    const IntHistogram& h = ctrl_->cost_histogram();
    out_ << "cost p50=" << h.percentile(50) << " p99=" << h.percentile(99)
         << " max=" << h.max()
         << " degraded=" << ctrl_->stats().degraded_admits << "\n";
  }
  const AdmissionStats& s = ctrl_->stats();
  out_ << "ok stats submitted=" << s.submitted << " accepted=" << s.accepted
       << " rejected=" << s.rejected << " departed=" << s.departed
       << " delta=" << s.delta_accepts << " replace=" << s.replace_accepts
       << " repair=" << s.repair_accepts << " readmits=" << s.readmits
       << " evictions=" << s.retry_evictions
       << " oracle_calls=" << s.oracle_calls << " reused=" << s.tasks_reused
       << " retry=" << ctrl_->retry_queue_size() << "\n";
}

void CommandSession::do_metrics(const std::vector<std::string>& cmd) {
  const bool json = cmd.size() == 2 && cmd[1] == "json";
  if (cmd.size() > 2 || (cmd.size() == 2 && !json)) {
    error("usage: metrics [json]");
    return;
  }
  if (!loaded()) return;
  // The registry is computed from the controller's integer decision
  // counts, so this body is a pure function of the session's command
  // history — golden transcripts pin it byte for byte.  The analysis
  // cache counters stay out of it (online_tool --metrics-json folds them).
  const MetricsRegistry metrics = ctrl_->metrics();
  if (json)
    out_ << metrics.to_json() << "\n";
  else
    out_ << metrics.to_prometheus();
  out_ << "ok metrics count=" << metrics.num_metrics() << "\n";
}

void CommandSession::do_trace(const std::vector<std::string>& cmd) {
  std::size_t n = AdmissionController::kTraceCapacity;
  if (cmd.size() > 2) {
    error("usage: trace [n]");
    return;
  }
  if (cmd.size() == 2) {
    const auto v = parse_int(cmd[1], 0, INT32_MAX);
    if (!v) {
      error("usage: trace [n]");
      return;
    }
    n = static_cast<std::size_t>(*v);
  }
  if (!loaded()) return;
  const DecisionTrace& trace = ctrl_->decision_trace();
  const std::vector<DecisionRecord> recent = trace.last(n);
  for (const DecisionRecord& r : recent)
    out_ << "trace " << decision_record_line(r) << "\n";
  out_ << "ok trace shown=" << recent.size()
       << " recorded=" << trace.recorded()
       << " capacity=" << trace.capacity() << "\n";
}

void CommandSession::do_slo(const std::vector<std::string>& cmd) {
  if (cmd.size() != 3) {
    error("usage: slo <percentile 1..100, 0 disables> <budget>");
    return;
  }
  const auto pct = parse_int(cmd[1], 0, 100);
  const auto budget = parse_int(cmd[2], 0, INT64_MAX);
  if (!pct || !budget) {
    error("usage: slo <percentile 1..100, 0 disables> <budget>");
    return;
  }
  if (!loaded()) return;
  ctrl_->set_slo(static_cast<int>(*pct), *budget);
  out_ << "ok slo percentile=" << *pct << " budget=" << *budget << "\n";
}

void CommandSession::do_snapshot(const std::vector<std::string>& cmd) {
  if (cmd.size() != 1) {
    error("usage: snapshot");
    return;
  }
  if (!loaded()) return;
  const std::string text = snapshot_to_text(ctrl_->snapshot());
  // Same lone-dot framing as command payloads; no snapshot line is ever
  // a bare ".", so clients can split the reply without counting.
  out_ << "snapshot begin\n" << text << ".\n";
  out_ << "ok snapshot resident=" << ctrl_->resident()
       << " retry=" << ctrl_->retry_queue_size() << " bytes=" << text.size()
       << "\n";
}

int run_server(std::istream& in, std::ostream& out,
               const ServeOptions& options) {
  CommandSession session(out, options);
  std::string line;
  while (!session.done() && std::getline(in, line)) {
    session.feed(line);
    out.flush();  // interactive clients see each reply promptly
  }
  session.finish();
  out.flush();
  return options.strict && session.saw_error() ? 2 : 0;
}

}  // namespace dpcp
