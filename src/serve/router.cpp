#include "serve/router.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/parse.hpp"
#include "util/workers.hpp"

namespace dpcp {

namespace {

/// One multiplexed client: a CommandSession writing into a private
/// buffer.  Only the worker draining its shard's list touches
/// `session`/`buffer`, and that list runs on one worker, so no locks
/// are needed.
struct MuxSession {
  explicit MuxSession(const ServeOptions& serve) : session(buffer, serve) {}
  std::ostringstream buffer;
  CommandSession session;
};

/// One entry of a shard's work list: feed `line` to `session`, or
/// finish() it when there is no line.
struct ShardStep {
  MuxSession* session;
  std::optional<std::string> line;
};

}  // namespace

int run_mux_server(std::istream& in, std::ostream& out,
                   const MuxOptions& options) {
  const int shards = std::max(1, options.shards);
  std::map<int, std::unique_ptr<MuxSession>> sessions;  // id -> session
  std::vector<std::vector<ShardStep>> work(static_cast<std::size_t>(shards));
  bool mux_error = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::size_t space = line.find(' ');
    if (space == std::string::npos) space = line.size();
    int sid = -1;
    if (line[0] == '@') {
      const auto v = parse_int(line.substr(1, space - 1), 0, INT32_MAX);
      if (v) sid = static_cast<int>(*v);
    }
    if (sid < 0) {
      // Mux-layer framing errors are not any session's output; they are
      // emitted immediately, which — since no session runs before EOF —
      // puts them deterministically first.
      out << "error expected '@<session> <line>', got '" << line << "'\n";
      mux_error = true;
      if (options.serve.strict) break;
      continue;
    }
    std::unique_ptr<MuxSession>& s = sessions[sid];
    if (!s) s = std::make_unique<MuxSession>(options.serve);
    // The payload tail: everything after "@<sid> ", which may be empty
    // (a blank payload line) — payload blocks go through verbatim.
    work[static_cast<std::size_t>(sid % shards)].push_back(
        {s.get(), space < line.size() ? line.substr(space + 1) : ""});
  }
  for (const auto& [sid, s] : sessions)
    work[static_cast<std::size_t>(sid % shards)].push_back(
        {s.get(), std::nullopt});

  // Shards without a session are no work: they start no worker.
  work.erase(std::remove_if(work.begin(), work.end(),
                            [](const auto& steps) { return steps.empty(); }),
             work.end());
  std::atomic<std::size_t> next{0};
  run_workers(
      std::min(static_cast<std::size_t>(std::max(1, options.threads)),
               work.size()),
      [&] {
        for (std::size_t k = next++; k < work.size(); k = next++)
          for (const ShardStep& step : work[k]) {
            if (step.line) step.session->session.feed(*step.line);
            else step.session->session.finish();
          }
      });

  bool session_error = false;
  for (const auto& [sid, s] : sessions) {
    session_error = session_error || s->session.saw_error();
    std::istringstream lines(s->buffer.str());
    std::string reply;
    while (std::getline(lines, reply))
      out << '@' << sid << ' ' << reply << "\n";
  }
  out.flush();
  return options.serve.strict && (mux_error || session_error) ? 2 : 0;
}

}  // namespace dpcp
