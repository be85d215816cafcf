// Span recorder for the benchmark's traced runs.
//
// Spans are opened and closed by the benchmark itself around calls into
// the library's public entry points; nothing inside the library is
// instrumented.  Every span has a kind (its layer bucket, e.g. "gen" or
// "analysis.ep.wcrt"), and the recorder keeps two things:
//
//   * a self-time ledger per kind: a span's duration minus the part of it
//     its child spans cover, plus a call count;
//   * the spans themselves (up to a cap), held in memory and written out
//     once as Chrome/Perfetto trace-event JSON when the run ends.
//
// Single-threaded: the benchmark runs every workload on one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  /// `max_events` caps the spans kept for the trace file; the ledger
  /// counts every span regardless.
  explicit Tracer(std::size_t max_events = 200'000);

  /// Id of the span kind `name`, registering it on first use.
  int kind(const std::string& name);

  /// Spans of one request share this id in the trace file.
  void set_request(std::int64_t request) { request_ = request; }

  void begin(int kind);
  void end();

  /// RAII span: opens on construction, closes on destruction.
  class Span {
   public:
    Span(Tracer& tracer, int kind) : tracer_(tracer) { tracer_.begin(kind); }
    ~Span() { tracer_.end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
  };

  /// Self time (seconds) and closed-span count of kind `name`; 0 when the
  /// kind never ran.
  double self_s(const std::string& name) const;
  std::int64_t calls(const std::string& name) const;
  /// Summed self time of every kind except `excluded`.
  double total_self_s(const std::string& excluded) const;
  /// Summed duration of the closed top-level spans.
  double root_s() const { return static_cast<double>(root_ns_) * 1e-9; }

  /// Writes the kept spans as a Chrome trace-event JSON document.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    int kind;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t id;
  };
  struct Event {
    int kind;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t id;
    std::int64_t parent;
    std::int64_t request;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::size_t max_events_;
  std::vector<std::string> names_;
  std::vector<std::int64_t> self_ns_;
  std::vector<std::int64_t> calls_;
  std::vector<Open> stack_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
  std::int64_t next_id_ = 1;
  std::int64_t request_ = 0;
  std::int64_t root_ns_ = 0;
};

}  // namespace perfbench
