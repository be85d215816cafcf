// Integer time base for all scheduling-analysis arithmetic.
//
// Every quantity with a physical-time dimension (WCETs, periods, deadlines,
// critical-section lengths, response times, blocking terms) is an
// std::int64_t count of nanoseconds.  The paper's parameter space spans
// [15 us, 100 us] critical sections against [10 ms, 1000 ms] periods;
// exact integer arithmetic avoids any drift in the fixed-point recurrences
// of the response-time analysis (Sec. IV of the paper).
#pragma once

#include <cstdint>
#include <string>

namespace dpcp {

/// Nanosecond time value.  Signed so that slack computations may go negative.
using Time = std::int64_t;

inline constexpr Time kNanosecond  = 1;
inline constexpr Time kMicrosecond = 1'000;
inline constexpr Time kMillisecond = 1'000'000;
inline constexpr Time kSecond      = 1'000'000'000;

/// Sentinel for "no bound" / "analysis diverged".
inline constexpr Time kTimeInfinity = INT64_MAX / 4;

constexpr Time micros(std::int64_t us) { return us * kMicrosecond; }
constexpr Time millis(std::int64_t ms) { return ms * kMillisecond; }

/// Ceiling division for non-negative numerator and positive denominator.
/// The eta() job-count bound of the analysis uses this.  No intermediate
/// exceeds `a`, so a period near INT64_MAX cannot overflow it.
constexpr std::int64_t div_ceil(std::int64_t a, std::int64_t b) {
  return a / b + (a % b != 0);
}

/// Render a time value with an auto-selected unit, e.g. "12.5ms" / "80us".
std::string format_time(Time t);

}  // namespace dpcp
