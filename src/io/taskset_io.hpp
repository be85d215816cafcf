// Plain-text serialization for task sets and partitions.
//
// A small, line-oriented, versioned format so workloads can be stored,
// diffed, shared and replayed (e.g. generate once, analyse with every
// protocol, simulate later).  Times are raw nanosecond integers.
//
//   dpcp-taskset v1
//   resources 2
//   task period 20 deadline 20
//     cs 0 3
//     cs 1 2
//     vertex 2
//     vertex 3 requests 0:1
//     edge 0 1
//   end
//   ...
//
//   dpcp-partition v1
//   processors 4
//   cluster 0 0 1
//   cluster 1 2 3
//   resource 0 1
#pragma once

#include <optional>
#include <string>

#include "model/taskset.hpp"
#include "partition/partition.hpp"

namespace dpcp {

/// Serializes a task set (priorities are not stored; they are re-derived
/// by Rate-Monotonic assignment on load, matching the paper's setup).
std::string taskset_to_text(const TaskSet& ts);

/// Parses a task set; on failure returns nullopt and, when `error` is
/// non-null, a line-numbered description of the first problem.  Rejects a
/// resource count above kMaxTasksetResources, a task that takes the
/// tasks x resources product past kMaxTasksetCells, a task whose vertex
/// WCETs sum past INT64_MAX (C_i, and so L*_i <= C_i, must fit in Time)
/// and a task whose requests to one resource sum past INT32_MAX (N_{i,q}
/// is an int).
std::optional<TaskSet> taskset_from_text(const std::string& text,
                                         std::string* error = nullptr);

std::string partition_to_text(const Partition& part);
/// Parses a partition; nullopt + line-numbered `error` on the first
/// problem.  Rejects `processors` above kMaxProcessors, `tasks` above
/// kMaxTasksetCells and `nresources` above kMaxTasksetResources, the
/// bounds a task set or a flag already meets.
std::optional<Partition> partition_from_text(const std::string& text,
                                             std::string* error = nullptr);

/// Embedded-block framing for composite documents (the controller
/// snapshot nests taskset and partition blocks inside one stream).  A
/// block is the body's lines followed by a lone `marker` line; the marker
/// must not be a directive of the embedded format (the snapshot uses
/// "end-taskset" / "end-partition", which no v1 block can contain).
void write_embedded_block(std::ostream& os, const std::string& body,
                          const std::string& marker);

/// Reads lines from `in` up to (excluding) a lone `marker` line and
/// returns them newline-joined; `line_no` (optional) is advanced by the
/// number of lines consumed.  nullopt + error when the stream ends before
/// the marker.
std::optional<std::string> read_embedded_block(std::istream& in,
                                               const std::string& marker,
                                               int* line_no = nullptr,
                                               std::string* error = nullptr);

/// File convenience wrappers (thin fopen/fread shims over the above).
bool write_text_file(const std::string& path, const std::string& content,
                     std::string* error = nullptr);
std::optional<std::string> read_text_file(const std::string& path,
                                          std::string* error = nullptr);

}  // namespace dpcp
