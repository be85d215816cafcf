#include "opt/snapshot.hpp"

#include <array>
#include <sstream>

#include "analysis/interface.hpp"
#include "io/taskset_io.hpp"
#include "partition/placement.hpp"
#include "util/limits.hpp"
#include "util/parse.hpp"

namespace dpcp {
namespace {

constexpr const char* kTasksetMarker = "end-taskset";
constexpr const char* kPartitionMarker = "end-partition";

void set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
}

/// Strict line/token cursor over the snapshot text.  Unlike the taskset
/// reader this one keeps every line verbatim (no comment stripping): a
/// snapshot is machine-written, and the embedded blocks must round-trip
/// byte-for-byte.  Its checks report through `error` as `line N: ...`.
class Cursor {
 public:
  Cursor(const std::string& text, std::string* error)
      : input_(text), error_(error) {}

  bool next() {
    std::string raw;
    if (!std::getline(input_, raw)) return false;
    ++line_no_;
    tokens_.clear();
    std::istringstream ls(raw);
    std::string tok;
    while (ls >> tok) tokens_.push_back(tok);
    return true;
  }

  const std::vector<std::string>& tokens() const { return tokens_; }
  std::istringstream& stream() { return input_; }
  int* line_no() { return &line_no_; }

  /// Sets the error to `line N: <what>`; returns false.
  bool fail(const std::string& what) {
    set_error(error_, "line " + std::to_string(line_no_) + ": " + what);
    return false;
  }

  /// Reads the next line, which must be `key` and at least `min_tokens`
  /// more tokens (`key` alone is legal where the list may be empty).
  bool expect(const char* key, std::size_t min_tokens) {
    if (next() && !tokens_.empty() && tokens_[0] == key &&
        tokens_.size() >= 1 + min_tokens)
      return true;
    return fail(std::string("expected '") + key + " ...'");
  }

  /// Reads a `key <n>` line into `*out`, n in [lo, hi].
  template <typename T>
  bool number(const char* key, T* out,
              std::common_type_t<T> lo = std::numeric_limits<T>::min(),
              std::common_type_t<T> hi = std::numeric_limits<T>::max()) {
    return (expect(key, 1) && parse_into(tokens_[1], out, lo, hi)) ||
           fail(std::string("bad '") + key + "'");
  }

 private:
  std::istringstream input_;
  std::string* error_;
  std::vector<std::string> tokens_;
  int line_no_ = 0;
};

const char* const kStatKeys[] = {
    "submitted", "accepted",  "rejected",     "departed",
    "delta",     "replace",   "repair",       "readmits",
    "evictions", "degraded",  "oracle-calls", "reused"};

/// The AdmissionStats fields in kStatKeys order (`S` may be const).
template <typename S>
auto stat_slots(S& s) {
  return std::array{
      &s.submitted,       &s.accepted,        &s.rejected,
      &s.departed,        &s.delta_accepts,   &s.replace_accepts,
      &s.repair_accepts,  &s.readmits,        &s.retry_evictions,
      &s.degraded_admits, &s.oracle_calls,    &s.tasks_reused};
}

/// Serializes one task as a single-task taskset block (arity `nr`), so
/// retry-queue entries reuse the taskset reader wholesale.
std::string task_block(const DagTask& task, int nr) {
  TaskSet one(nr);
  one.adopt_task(task);
  return taskset_to_text(one);
}

}  // namespace

std::string snapshot_to_text(const ControllerSnapshot& snap) {
  std::ostringstream os;
  const AdmitOptions& o = snap.options;
  os << "dpcp-snapshot v1\n";
  os << "m " << o.m << "\n";
  os << "analysis " << analysis_kind_token(o.kind) << "\n";
  os << "max-paths " << o.analysis.max_paths << "\n";
  os << "max-signatures " << o.analysis.max_signatures << "\n";
  os << "placements";
  for (PlacementKind kind : o.placements)
    os << ' ' << placement_kind_token(kind);
  os << "\n";
  os << "repair-evals " << o.repair_evals << "\n";
  os << "retry-cap " << o.retry_capacity << "\n";
  os << "seed " << o.seed << "\n";
  os << "readmit-on-depart 1\n";  // depart() always re-admits
  os << "next-ext " << snap.next_ext << "\n";
  os << "admit-seq " << snap.admit_seq << "\n";
  os << "slo " << snap.slo_percentile << ' ' << snap.slo_budget << "\n";
  os << "slo-window";
  for (std::int64_t v : snap.slo_window) os << ' ' << v;
  os << "\n";
  os << "cost-hist";
  for (const auto& [value, count] : snap.cost_hist.cells())
    os << ' ' << value << ':' << count;
  os << "\n";
  os << "stats";
  {
    const auto slots = stat_slots(snap.stats);
    for (std::size_t k = 0; k < slots.size(); ++k)
      os << ' ' << kStatKeys[k] << ' ' << *slots[k];
  }
  os << "\n";
  os << "ext-ids";
  for (int id : snap.ext_ids) os << ' ' << id;
  os << "\n";
  os << "taskset\n";
  write_embedded_block(os, taskset_to_text(snap.taskset), kTasksetMarker);
  os << "partition\n";
  write_embedded_block(os, partition_to_text(snap.partition),
                       kPartitionMarker);
  os << "retry " << snap.retry.size() << "\n";
  for (const auto& [id, task] : snap.retry) {
    os << "pending " << id << "\n";
    write_embedded_block(os, task_block(task, snap.taskset.num_resources()),
                         kTasksetMarker);
  }
  os << "end-snapshot\n";
  return os.str();
}

std::optional<ControllerSnapshot> snapshot_from_text(const std::string& text,
                                                     std::string* error) {
  // Every scalar line is `key <tokens...>` in the fixed order written by
  // snapshot_to_text.
  Cursor in(text, error);
  ControllerSnapshot snap;
  if (!in.next() ||
      in.tokens() != std::vector<std::string>{"dpcp-snapshot", "v1"}) {
    in.fail("expected header 'dpcp-snapshot v1'");
    return std::nullopt;
  }

  AdmitOptions& o = snap.options;
  if (!in.number("m", &o.m, 1, kMaxProcessors)) return std::nullopt;
  if (!in.expect("analysis", 1) ||
      !analysis_kind_from_token(in.tokens()[1], &o.kind)) {
    in.fail("bad 'analysis'");
    return std::nullopt;
  }
  if (!in.number("max-paths", &o.analysis.max_paths, 1) ||
      !in.number("max-signatures", &o.analysis.max_signatures, 1) ||
      !in.expect("placements", 0))
    return std::nullopt;
  o.placements.clear();
  for (std::size_t k = 1; k < in.tokens().size(); ++k) {
    const auto kind = placement_kind_from_token(in.tokens()[k]);
    if (!kind) {
      in.fail("unknown placement '" + in.tokens()[k] + "'");
      return std::nullopt;
    }
    o.placements.push_back(*kind);
  }
  if (!in.number("repair-evals", &o.repair_evals, 0, kMaxRepairEvals) ||
      !in.number("retry-cap", &o.retry_capacity) ||
      !in.number("seed", &o.seed))
    return std::nullopt;
  if (!in.expect("readmit-on-depart", 1) || in.tokens()[1] != "1") {
    in.fail("bad 'readmit-on-depart'");
    return std::nullopt;
  }
  if (!in.number("next-ext", &snap.next_ext, 0) ||
      !in.number("admit-seq", &snap.admit_seq))
    return std::nullopt;
  if (!in.expect("slo", 2) ||
      !parse_into(in.tokens()[1], &snap.slo_percentile, 0, 100) ||
      !parse_into(in.tokens()[2], &snap.slo_budget, 0)) {
    in.fail("bad 'slo <percentile> <budget>'");
    return std::nullopt;
  }
  if (!in.expect("slo-window", 0)) return std::nullopt;
  for (std::size_t k = 1; k < in.tokens().size(); ++k) {
    std::int64_t v = 0;
    if (!parse_into(in.tokens()[k], &v, 0)) {
      in.fail("bad slo-window sample");
      return std::nullopt;
    }
    snap.slo_window.push_back(v);
  }
  if (!in.expect("cost-hist", 0)) return std::nullopt;
  for (std::size_t k = 1; k < in.tokens().size(); ++k) {
    const auto colon = in.tokens()[k].find(':');
    std::int64_t value = 0, count = 0;
    if (colon == std::string::npos ||
        !parse_into(in.tokens()[k].substr(0, colon), &value) ||
        !parse_into(in.tokens()[k].substr(colon + 1), &count, 1)) {
      in.fail("bad cost-hist cell '" + in.tokens()[k] + "'");
      return std::nullopt;
    }
    snap.cost_hist.add(value, count);
  }
  if (!in.expect("stats", 24)) return std::nullopt;
  {
    const auto slots = stat_slots(snap.stats);
    if (in.tokens().size() != 1 + 2 * slots.size()) {
      in.fail("bad 'stats' arity");
      return std::nullopt;
    }
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (in.tokens()[1 + 2 * k] != kStatKeys[k] ||
          !parse_into(in.tokens()[2 + 2 * k], slots[k], 0)) {
        in.fail(std::string("bad stats field '") + kStatKeys[k] + "'");
        return std::nullopt;
      }
    }
  }
  if (!in.expect("ext-ids", 0)) return std::nullopt;
  for (std::size_t k = 1; k < in.tokens().size(); ++k) {
    int id = 0;
    if (!parse_into(in.tokens()[k], &id, 0)) {
      in.fail("bad ext-id");
      return std::nullopt;
    }
    snap.ext_ids.push_back(id);
  }

  if (!in.expect("taskset", 0)) return std::nullopt;
  auto ts_text = read_embedded_block(in.stream(), kTasksetMarker,
                                     in.line_no(), error);
  if (!ts_text) return std::nullopt;
  std::string sub_error;
  auto ts = taskset_from_text(*ts_text, &sub_error);
  if (!ts) {
    set_error(error, "taskset block: " + sub_error);
    return std::nullopt;
  }
  snap.taskset = std::move(*ts);

  if (!in.expect("partition", 0)) return std::nullopt;
  auto part_text = read_embedded_block(in.stream(), kPartitionMarker,
                                       in.line_no(), error);
  if (!part_text) return std::nullopt;
  auto part = partition_from_text(*part_text, &sub_error);
  if (!part) {
    set_error(error, "partition block: " + sub_error);
    return std::nullopt;
  }
  snap.partition = std::move(*part);

  std::int64_t retry_count = 0;
  if (!in.expect("retry", 1) || !parse_into(in.tokens()[1], &retry_count, 0)) {
    in.fail("bad 'retry <count>'");
    return std::nullopt;
  }
  for (std::int64_t k = 0; k < retry_count; ++k) {
    int id = 0;
    if (!in.expect("pending", 1) || !parse_into(in.tokens()[1], &id, 0)) {
      in.fail("bad 'pending <id>'");
      return std::nullopt;
    }
    auto block = read_embedded_block(in.stream(), kTasksetMarker,
                                     in.line_no(), error);
    if (!block) return std::nullopt;
    auto one = taskset_from_text(*block, &sub_error);
    if (!one || one->size() != 1 ||
        one->num_resources() != snap.taskset.num_resources()) {
      set_error(error, "pending block for id " + std::to_string(id) + ": " +
                           (one ? "expected one task of matching arity"
                                : sub_error));
      return std::nullopt;
    }
    snap.retry.emplace_back(id, one->task(0));
  }

  if (!in.next() || in.tokens() != std::vector<std::string>{"end-snapshot"}) {
    in.fail("expected 'end-snapshot'");
    return std::nullopt;
  }
  return snap;
}

}  // namespace dpcp
