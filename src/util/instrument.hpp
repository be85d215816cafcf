// Counters of the analysis-session memos.
//
// The Lemma-3 unit memo sits on wcrt()'s innermost loop, so probes are
// counted in locals of the per-query context and added here once per
// computed wcrt() call; a query the result memo answers computes
// nothing, so it makes no probe and counts one result hit.  Counting
// never changes a bound, so sweep and server output do not depend on
// these values; they reach a report only at the end of an online stream
// (run_stream(), exp/online.cpp).
#pragma once

#include <cstdint>

namespace dpcp {

/// One instance per AnalysisSession (sessions are single-threaded by the
/// engine contract, so plain increments suffice).
struct CacheStats {
  std::uint64_t memo_hits = 0;    // unit-memo probe found the key
  std::uint64_t memo_misses = 0;  // probe inserted a fresh entry
  std::uint64_t result_hits = 0;  // wcrt() answered by the result memo
};

}  // namespace dpcp
