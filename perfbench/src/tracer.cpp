#include "tracer.hpp"

#include <cstdio>

namespace perfbench {

Tracer::Tracer(std::size_t max_events)
    : origin_(Clock::now()), max_events_(max_events) {
  events_.reserve(max_events_ < 65536 ? max_events_ : 65536);
}

int Tracer::kind(const std::string& name) {
  for (std::size_t k = 0; k < names_.size(); ++k)
    if (names_[k] == name) return static_cast<int>(k);
  names_.push_back(name);
  self_ns_.push_back(0);
  calls_.push_back(0);
  return static_cast<int>(names_.size() - 1);
}

void Tracer::begin(int kind) {
  stack_.push_back({kind, now_ns(), 0, next_id_++});
}

void Tracer::end() {
  const std::int64_t end_ns = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end_ns - open.start_ns;
  const std::size_t k = static_cast<std::size_t>(open.kind);
  self_ns_[k] += dur - open.child_ns;
  ++calls_[k];
  if (stack_.empty())
    root_ns_ += dur;
  else
    stack_.back().child_ns += dur;
  if (events_.size() < max_events_)
    events_.push_back({open.kind, open.start_ns, dur, open.id,
                       stack_.empty() ? 0 : stack_.back().id, request_});
  else
    ++dropped_;
}

double Tracer::self_s(const std::string& name) const {
  for (std::size_t k = 0; k < names_.size(); ++k)
    if (names_[k] == name) return static_cast<double>(self_ns_[k]) * 1e-9;
  return 0.0;
}

std::int64_t Tracer::calls(const std::string& name) const {
  for (std::size_t k = 0; k < names_.size(); ++k)
    if (names_[k] == name) return calls_[k];
  return 0;
}

double Tracer::total_self_s(const std::string& excluded) const {
  std::int64_t sum = 0;
  for (std::size_t k = 0; k < names_.size(); ++k)
    if (names_[k] != excluded) sum += self_ns_[k];
  return static_cast<double>(sum) * 1e-9;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  // Complete ("X") events with microsecond timestamps; the layer is the
  // category (the span kind up to its first dot), and args carry the
  // span's id, its parent's id, and the request it belongs to.
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"benchmark\"}}");
  for (const Event& e : events_) {
    const std::string& name = names_[static_cast<std::size_t>(e.kind)];
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                 "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"id\":%lld,\"parent\":%lld,\"request\":%lld}}",
                 name.c_str(), layer.c_str(),
                 static_cast<double>(e.start_ns) * 1e-3,
                 static_cast<double>(e.dur_ns) * 1e-3,
                 static_cast<long long>(e.id), static_cast<long long>(e.parent),
                 static_cast<long long>(e.request));
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%zu}}\n", dropped_);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
