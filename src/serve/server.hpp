// Schedulability as a service: a line-oriented command front over the
// online AdmissionController (opt/admission.hpp).
//
// The protocol is one self-contained session of commands and replies:
//
//   load                       # create a workload; payload follows
//   <dpcp-taskset v1 block>    # io/taskset_io text, raw lines
//   .                          # lone dot terminates the payload
//   admit                      # admit more tasks (same payload framing)
//   ...
//   .
//   depart 3                   # remove task with external id 3
//   query                      # resident table with certified bounds
//   stats                      # lifetime counters (+ cost percentiles
//                              # once an SLO is set)
//   slo 99 40                  # degrade repair when rolling p99 cost > 40
//   metrics                    # controller metrics, Prometheus text form
//   metrics json               # same registry as one JSON line
//   trace                      # recent decision records (trace 5 = last 5)
//   snapshot                   # serialize the controller (payload reply)
//   restore                    # rebuild from a snapshot; payload follows
//   quit
//
// Every reply line starts with `admit`, `evict`, `task`, `gone`, `cost`,
// `snapshot begin` (followed by payload lines and a lone `.`), `ok <cmd>`
// or `error`; `metrics` and `trace` replies carry free-form body lines
// (Prometheus text / `trace seq=...` records) but still end with the one
// `ok` line, so clients (and the golden-transcript test) can frame
// responses without timing.  Output is a pure function of the input stream and the
// options — no clocks, no ambient randomness — which is what lets CI
// diff a live session against a committed transcript byte for byte.
//
// Two fronts consume the same session logic:
//   * run_server(): one session over one stream pair (the classic
//     single-client mode);
//   * CommandSession: a push-based core (feed one line at a time) that
//     the multi-client mux (serve/router.hpp) drives, one instance (and
//     so one controller) per client session; a shard only groups
//     sessions that run one after another.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "opt/admission.hpp"

namespace dpcp {

/// Server-lifetime knobs (everything else arrives via commands): the
/// options of every controller `load` creates, plus the error policy.
struct ServeOptions : AdmitOptions {
  /// Stop at the first `error` reply and make the run exit 2 (CI gates
  /// validate bad input this way; interactive sessions keep the default
  /// in-band error replies).
  bool strict = false;
};

/// The push-based session core: feed input lines one at a time; replies
/// are written to the bound output stream as they complete.  Payload
/// framing (the lone-dot blocks after load/admit/restore) is a state
/// machine across feed() calls, so a session can be multiplexed with
/// others line by line — the sharded front does exactly that.
class CommandSession {
 public:
  CommandSession(std::ostream& out, const ServeOptions& options);
  ~CommandSession();
  CommandSession(const CommandSession&) = delete;
  CommandSession& operator=(const CommandSession&) = delete;

  /// Processes one input line (without its trailing newline).
  void feed(const std::string& line);
  /// Signals end of input: an open payload block is a framing error
  /// (`error unterminated payload (expected '.')`).
  void finish();

  /// True once `quit` was processed or finish() was called; further
  /// feed() calls are ignored.
  bool done() const { return done_; }
  /// True once any `error` reply has been emitted.
  bool saw_error() const { return saw_error_; }

 private:
  enum class Payload {
    kNone,
    kLoad,
    /// Before any `load` too: the payload is still consumed (the stream
    /// must stay framed) and then answered with an error — unless the
    /// stream ends first, which is the framing error instead.
    kAdmit,
    kRestore,
  };

  void dispatch(const std::vector<std::string>& cmd);
  void finish_payload();
  void emit_decision(const AdmitDecision& d);
  int admit_all(const TaskSet& ts);
  void do_load(const std::string& block);
  void do_admit(const std::string& block);
  void do_restore(const std::string& block);
  void do_depart(const std::vector<std::string>& cmd);
  void do_query(const std::vector<std::string>& cmd);
  void do_stats(const std::vector<std::string>& cmd);
  void do_metrics(const std::vector<std::string>& cmd);
  void do_trace(const std::vector<std::string>& cmd);
  void do_slo(const std::vector<std::string>& cmd);
  void do_snapshot(const std::vector<std::string>& cmd);
  void error(const std::string& message);
  /// True when a workload is loaded; otherwise replies with the error.
  bool loaded();

  std::ostream& out_;
  const ServeOptions options_;
  std::unique_ptr<AdmissionController> ctrl_;
  Payload payload_state_ = Payload::kNone;
  std::string payload_;
  bool done_ = false;
  bool saw_error_ = false;
};

/// Runs one command session over the stream pair to EOF or `quit`.
/// Returns 0, or 2 when options.strict and an `error` reply was emitted.
int run_server(std::istream& in, std::ostream& out,
               const ServeOptions& options);

}  // namespace dpcp
