#include "io/taskset_io.hpp"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/limits.hpp"
#include "util/parse.hpp"

namespace dpcp {
namespace {

/// Tokenised view of one input line plus error reporting context.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : input_(text) {}

  /// Advances to the next non-empty, non-comment line; false at EOF.
  bool next() {
    std::string raw;
    while (std::getline(input_, raw)) {
      ++line_no_;
      const auto hash = raw.find('#');
      if (hash != std::string::npos) raw.erase(hash);
      tokens_.clear();
      std::istringstream ls(raw);
      std::string tok;
      while (ls >> tok) tokens_.push_back(tok);
      if (!tokens_.empty()) return true;
    }
    return false;
  }

  const std::vector<std::string>& tokens() const { return tokens_; }
  int line() const { return line_no_; }

  std::string err(const std::string& what) const {
    return "line " + std::to_string(line_no_) + ": " + what;
  }

 private:
  std::istringstream input_;
  std::vector<std::string> tokens_;
  int line_no_ = 0;
};

void set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
}

}  // namespace

std::string taskset_to_text(const TaskSet& ts) {
  std::ostringstream os;
  os << "dpcp-taskset v1\n";
  os << "resources " << ts.num_resources() << "\n";
  for (int i = 0; i < ts.size(); ++i) {
    const DagTask& t = ts.task(i);
    os << "task period " << t.period() << " deadline " << t.deadline()
       << "\n";
    for (ResourceId q = 0; q < ts.num_resources(); ++q)
      if (t.usage(q).cs_length > 0)
        os << "  cs " << q << ' ' << t.usage(q).cs_length << "\n";
    for (VertexId v = 0; v < t.vertex_count(); ++v) {
      os << "  vertex " << t.vertex_wcet(v);
      const char* sep = " requests ";
      for (const VertexRequest& r : t.requests(v)) {
        os << sep << r.resource << ':' << r.count;
        sep = " ";
      }
      os << "\n";
    }
    for (VertexId v = 0; v < t.vertex_count(); ++v)
      for (VertexId w : t.graph().successors(v))
        os << "  edge " << v << ' ' << w << "\n";
    os << "end\n";
  }
  return os.str();
}

std::optional<TaskSet> taskset_from_text(const std::string& text,
                                         std::string* error) {
  LineReader in(text);
  if (!in.next() || in.tokens() !=
                        std::vector<std::string>{"dpcp-taskset", "v1"}) {
    set_error(error, in.err("expected header 'dpcp-taskset v1'"));
    return std::nullopt;
  }
  if (!in.next() || in.tokens().size() != 2 ||
      in.tokens()[0] != "resources") {
    set_error(error, in.err("expected 'resources <count>'"));
    return std::nullopt;
  }
  int nr = 0;
  if (!parse_into(in.tokens()[1], &nr, 0, kMaxTasksetResources)) {
    set_error(error, in.err("bad resource count"));
    return std::nullopt;
  }

  TaskSet ts(nr);
  while (in.next()) {
    const auto& t0 = in.tokens();
    if (t0[0] != "task" || t0.size() != 5 || t0[1] != "period" ||
        t0[3] != "deadline") {
      set_error(error, in.err("expected 'task period <T> deadline <D>'"));
      return std::nullopt;
    }
    std::int64_t period = 0, deadline = 0;
    if (!parse_into(t0[2], &period) || !parse_into(t0[4], &deadline)) {
      set_error(error, in.err("bad period/deadline"));
      return std::nullopt;
    }
    // Checked before the task's usage row is allocated.
    if ((ts.size() + std::int64_t{1}) * nr > kMaxTasksetCells) {
      set_error(error, in.err("tasks x resources exceeds " +
                              std::to_string(kMaxTasksetCells)));
      return std::nullopt;
    }
    DagTask task(-1, period, deadline, nr);
    const int task_line = in.line();  // opening line, for error reports
    Time wcet_sum = 0;                // C_i so far, checked per vertex
    std::vector<int> request_sum(static_cast<std::size_t>(nr), 0);  // N_{i,q}

    bool ended = false;
    while (in.next()) {
      const auto& t = in.tokens();
      if (t[0] == "end") {
        ended = true;
        break;
      }
      if (t[0] == "task") {
        // A new task header inside an unterminated block: blame the block
        // that was left open, not the (well-formed) header line.
        set_error(error, in.err("'task' before 'end' of task started at line " +
                                std::to_string(task_line)));
        return std::nullopt;
      }
      if (t[0] == "cs") {
        int q = 0;
        std::int64_t len = 0;
        if (t.size() != 3 || !parse_into(t[1], &q, 0, nr - 1) ||
            !parse_into(t[2], &len, 1)) {
          set_error(error, in.err("bad 'cs <resource> <length>'"));
          return std::nullopt;
        }
        task.set_cs_length(q, len);
      } else if (t[0] == "vertex") {
        std::int64_t wcet = 0;
        if (t.size() < 2 || !parse_into(t[1], &wcet, 1)) {
          set_error(error, in.err("bad 'vertex <wcet> ...'"));
          return std::nullopt;
        }
        if (__builtin_add_overflow(wcet_sum, wcet, &wcet_sum)) {
          set_error(error, in.err("task WCET sum exceeds int64"));
          return std::nullopt;
        }
        std::vector<int> requests;
        std::size_t k = 2;
        if (k < t.size()) {
          if (t[k] != "requests") {
            set_error(error, in.err("expected 'requests' after WCET"));
            return std::nullopt;
          }
          requests.assign(static_cast<std::size_t>(nr), 0);
          for (++k; k < t.size(); ++k) {
            const auto colon = t[k].find(':');
            int q = 0, n = 0;
            if (colon == std::string::npos ||
                !parse_into(t[k].substr(0, colon), &q, 0, nr - 1) ||
                !parse_into(t[k].substr(colon + 1), &n, 1)) {
              set_error(error, in.err("bad request entry '" + t[k] + "'"));
              return std::nullopt;
            }
            requests[static_cast<std::size_t>(q)] = n;
          }
          for (std::size_t q = 0; q < requests.size(); ++q) {
            if (__builtin_add_overflow(request_sum[q], requests[q],
                                       &request_sum[q])) {
              set_error(error, in.err("task request count to resource " +
                                      std::to_string(q) + " exceeds int32"));
              return std::nullopt;
            }
          }
        }
        task.add_vertex(wcet, requests);
      } else if (t[0] == "edge") {
        int from = 0, to = 0;
        if (t.size() != 3 ||
            !parse_into(t[1], &from, 0, task.vertex_count() - 1) ||
            !parse_into(t[2], &to, 0, task.vertex_count() - 1)) {
          set_error(error, in.err("bad 'edge <from> <to>' (vertices must be "
                                  "declared before edges)"));
          return std::nullopt;
        }
        if (from == to) {
          set_error(error, in.err("self-loop 'edge " + t[1] + " " + t[2] +
                                  "' (the graph must be acyclic)"));
          return std::nullopt;
        }
        task.add_edge(from, to);
      } else {
        set_error(error, in.err("unknown directive '" + t[0] + "'"));
        return std::nullopt;
      }
    }
    if (!ended) {
      // Report the opening 'task' line, not wherever the input ran out.
      set_error(error, "line " + std::to_string(task_line) +
                           ": missing 'end' for task started here");
      return std::nullopt;
    }
    task.finalize();
    if (!task.graph().is_acyclic()) {
      set_error(error, "line " + std::to_string(task_line) +
                           ": task graph has a cycle");
      return std::nullopt;
    }
    ts.adopt_task(std::move(task));
  }

  ts.assign_rm_priorities();
  if (auto err = ts.validate()) {
    set_error(error, "invalid task set: " + *err);
    return std::nullopt;
  }
  return ts;
}

std::string partition_to_text(const Partition& part) {
  std::ostringstream os;
  os << "dpcp-partition v1\n";
  os << "processors " << part.num_processors() << "\n";
  os << "tasks " << part.num_tasks() << "\n";
  os << "nresources " << part.num_resources() << "\n";
  for (int i = 0; i < part.num_tasks(); ++i) {
    os << "cluster " << i;
    for (ProcessorId p : part.cluster(i)) os << ' ' << p;
    os << "\n";
  }
  for (ResourceId q = 0; q < part.num_resources(); ++q)
    if (part.processor_of_resource(q) != Partition::kUnassigned)
      os << "resource " << q << ' ' << part.processor_of_resource(q) << "\n";
  return os.str();
}

std::optional<Partition> partition_from_text(const std::string& text,
                                             std::string* error) {
  LineReader in(text);
  if (!in.next() || in.tokens() !=
                        std::vector<std::string>{"dpcp-partition", "v1"}) {
    set_error(error, in.err("expected header 'dpcp-partition v1'"));
    return std::nullopt;
  }
  int m = 0, tasks = 0, nr = 0;
  auto read_scalar = [&](const char* key, int* out, std::int64_t hi) {
    if (!in.next() || in.tokens().size() != 2 || in.tokens()[0] != key ||
        !parse_into(in.tokens()[1], out, 0, hi)) {
      set_error(error, in.err(std::string("expected '") + key +
                              " <n>', n in 0.." + std::to_string(hi)));
      return false;
    }
    return true;
  };
  if (!read_scalar("processors", &m, kMaxProcessors) ||
      !read_scalar("tasks", &tasks, kMaxTasksetCells) ||
      !read_scalar("nresources", &nr, kMaxTasksetResources))
    return std::nullopt;

  Partition part(m, tasks, nr);
  while (in.next()) {
    const auto& t = in.tokens();
    if (t[0] == "cluster") {
      int task = 0;
      if (t.size() < 2 || !parse_into(t[1], &task, 0, tasks - 1)) {
        set_error(error, in.err("bad 'cluster <task> <procs...>'"));
        return std::nullopt;
      }
      for (std::size_t k = 2; k < t.size(); ++k) {
        int p = 0;
        if (!parse_into(t[k], &p, 0, m - 1)) {
          set_error(error, in.err("bad processor id '" + t[k] + "'"));
          return std::nullopt;
        }
        part.add_processor_to_task(task, p);
      }
    } else if (t[0] == "resource") {
      int q = 0, p = 0;
      if (t.size() != 3 || !parse_into(t[1], &q, 0, nr - 1) ||
          !parse_into(t[2], &p, 0, m - 1)) {
        set_error(error, in.err("bad 'resource <q> <proc>'"));
        return std::nullopt;
      }
      part.assign_resource(q, p);
    } else {
      set_error(error, in.err("unknown directive '" + t[0] + "'"));
      return std::nullopt;
    }
  }
  return part;
}

void write_embedded_block(std::ostream& os, const std::string& body,
                          const std::string& marker) {
  os << body;
  if (!body.empty() && body.back() != '\n') os << '\n';
  os << marker << "\n";
}

std::optional<std::string> read_embedded_block(std::istream& in,
                                               const std::string& marker,
                                               int* line_no,
                                               std::string* error) {
  std::string out, line;
  while (std::getline(in, line)) {
    if (line_no) ++*line_no;
    if (line == marker) return out;
    out.append(line);
    out.push_back('\n');
  }
  set_error(error, "missing '" + marker + "' terminator");
  return std::nullopt;
}

bool write_text_file(const std::string& path, const std::string& content,
                     std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    set_error(error, "cannot open '" + path + "' for writing");
    return false;
  }
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  if (!ok) set_error(error, "short write to '" + path + "'");
  return ok;
}

std::optional<std::string> read_text_file(const std::string& path,
                                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) {
    set_error(error, "cannot open '" + path + "'");
    return std::nullopt;
  }
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace dpcp
