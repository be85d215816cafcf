// Strict numeric parsing for CLI flags and the text formats (task sets,
// partitions, snapshots).
//
// std::atoi / std::atoll silently map garbage to 0 and wrap or saturate
// out-of-range input, so "--samples abc" runs a sweep with a mangled knob
// instead of failing.  These helpers accept a string only when it is, in
// its entirety, one base-10 number inside the requested range; callers
// reject anything else with a clear message.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

namespace dpcp {

/// Whole-string base-10 signed integer in [lo, hi] (inclusive).  nullopt
/// on empty input, garbage, trailing characters, or out-of-range values
/// (including values that overflow long long).  Leading/trailing
/// whitespace is rejected too: a knob is a number, nothing else.
std::optional<long long> parse_int(const std::string& s,
                                   long long lo = INT64_MIN,
                                   long long hi = INT64_MAX);

/// Whole-string base-10 *unsigned* integer in [lo, hi] (inclusive),
/// covering the full uint64 range that parse_int's long long cannot reach
/// (a seed knob documented as uint64 must accept 2^63..2^64-1, not
/// silently reject it).  nullopt on empty input, garbage, any sign
/// character (strtoull would wrap "-1" to UINT64_MAX), whitespace,
/// trailing characters, or out-of-range values.
std::optional<unsigned long long> parse_uint(const std::string& s,
                                             unsigned long long lo = 0,
                                             unsigned long long hi = UINT64_MAX);

/// Whole-string finite double; nullopt on garbage, trailing characters,
/// overflow, or non-finite results.
std::optional<double> parse_double(const std::string& s);

/// parse_int / parse_uint into an integer field of the text formats:
/// stores the value and returns true when `s` is one base-10 number in
/// [lo, hi], which defaults to T's whole range, so a number the field
/// cannot hold is rejected, never clamped or narrowed.  *out is left
/// untouched on failure.
template <typename T>
bool parse_into(const std::string& s, T* out,
                std::common_type_t<T> lo = std::numeric_limits<T>::min(),
                std::common_type_t<T> hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>, "parse_into reads integers");
  const auto v = [&] {
    if constexpr (std::is_signed_v<T>) return parse_int(s, lo, hi);
    else return parse_uint(s, lo, hi);
  }();
  if (!v) return false;
  *out = static_cast<T>(*v);
  return true;
}

/// parse_into for a named CLI flag: the value of `text` when it is one base-10 number in [lo, hi];
/// otherwise prints `<name>: invalid integer '<text>' (expected lo..hi)`
/// (`invalid unsigned integer` for an unsigned T) to stderr and returns
/// nullopt.
template <typename T>
std::optional<T> parse_knob(const std::string& name, const std::string& text,
                            T lo, T hi) {
  T v{};
  if (parse_into(text, &v, lo, hi)) return v;
  if constexpr (std::is_signed_v<T>)
    std::fprintf(stderr, "%s: invalid integer '%s' (expected %lld..%lld)\n",
                 name.c_str(), text.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi));
  else
    std::fprintf(stderr,
                 "%s: invalid unsigned integer '%s' (expected %llu..%llu)\n",
                 name.c_str(), text.c_str(),
                 static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
  return std::nullopt;
}

}  // namespace dpcp
