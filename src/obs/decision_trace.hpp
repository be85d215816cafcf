// Bounded ring of structured admission decision records — the "why did
// that admit cost 9 oracle calls" surface of the telemetry layer.
//
// The AdmissionController pushes one record per decision event (admit,
// retry-queue re-admit, depart); the ring keeps the last `capacity`
// records and counts everything it ever saw, so `trace` replies can say
// both "here are the last n decisions" and "m older ones were dropped".
// Records are plain integers and static tokens: pushing never allocates
// once the ring is full, and rendering is a pure function of the record,
// so golden transcripts can pin `trace` output byte for byte.
#pragma once

#include <cstdint>
#include <string>

#include "util/ring.hpp"

namespace dpcp {

/// One decision event.  `kind` and `rung` point at static tokens
/// ("admit"/"readmit"/"depart", admit_rung_token()), never owned strings.
struct DecisionRecord {
  std::int64_t seq = 0;  // controller-wide event number, 1-based
  const char* kind = "?";
  int id = -1;             // external task id
  bool accepted = false;   // admit: accepted; depart: id was found
  const char* rung = "-";  // escalation rung that decided an accept
  std::int64_t cost = 0;   // oracle wcrt() calls this event spent
  std::int64_t reused = 0;  // per-task re-analyses skipped this event
  bool streak_reset = false;  // cross-event reuse state invalidated
  bool degraded = false;      // repair rung disabled by the SLO window
  bool queued = false;        // rejected and parked in the retry queue
  int evicted_id = -1;        // retry entry evicted to make room, or -1
  std::int64_t readmitted = 0;  // depart: re-admissions its pass accepted
};

/// `key=value` rendering of one record, stable field order (the wire
/// form of the server's `trace` reply lines).
inline std::string decision_record_line(const DecisionRecord& r) {
  std::string out;
  out += "seq=" + std::to_string(r.seq);
  out += " kind=";
  out += r.kind;
  out += " id=" + std::to_string(r.id);
  out += " ok=" + std::to_string(r.accepted ? 1 : 0);
  out += " rung=";
  out += r.rung;
  out += " cost=" + std::to_string(r.cost);
  out += " reused=" + std::to_string(r.reused);
  out += " reset=" + std::to_string(r.streak_reset ? 1 : 0);
  out += " degraded=" + std::to_string(r.degraded ? 1 : 0);
  out += " queued=" + std::to_string(r.queued ? 1 : 0);
  out += " evicted=" + std::to_string(r.evicted_id);
  out += " readmitted=" + std::to_string(r.readmitted);
  return out;
}

/// The last `capacity` records, oldest first, and the lifetime count.
using DecisionTrace = BoundedRing<DecisionRecord>;

}  // namespace dpcp
