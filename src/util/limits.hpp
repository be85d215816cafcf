// Input limits: the largest values the parsers and the command-line
// flags accept.  Each bounds what one number in an input can make the
// program allocate or compute; a value past its limit is rejected with an
// error, never clamped.
#pragma once

#include <cstdint>

namespace dpcp {

/// Largest resource count taskset_from_text() accepts.  Every task holds a
/// usage row that wide, so the cap bounds what one `resources` line can
/// make the parser allocate; the paper's scenarios use at most 16.
inline constexpr int kMaxTasksetResources = 4096;

/// Largest processor count partition_from_text(), a snapshot's `m` and
/// every `--m` flag accept.  Controllers keep per-processor state, so the
/// cap bounds what one number can make them allocate.
inline constexpr int kMaxProcessors = 4096;

/// Largest tasks x resources product taskset_from_text() accepts: the
/// usage rows of all tasks together, 16 MiB at this cap.  With the
/// resource cap it bounds what a payload can make the parser allocate.
inline constexpr std::int64_t kMaxTasksetCells = std::int64_t{1} << 20;

/// Largest repair budget a flag or a snapshot accepts: it keeps the
/// search's proposal cap, 32 x budget + 64, far inside int64.
inline constexpr int kMaxRepairEvals = 1 << 24;

}  // namespace dpcp
