// Seeded random-number facility for task-set synthesis and simulation.
//
// A thin, value-semantic wrapper over Mt64, an in-repo engine that draws
// exactly what std::mt19937_64 draws, so that every generator in the code
// base draws from an explicitly seeded stream -- experiments are
// reproducible from a single seed, and sub-streams can be forked
// deterministically (one per task set) so sample i is identical no matter
// how many worker threads produced it.  Mt64 refills its buffer through
// one of two compiled copies of one body: AVX2 where the CPU has it (on
// x86-64 GCC/Clang builds), the baseline ISA elsewhere.  Both copies
// yield the same words.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/time.hpp"

namespace dpcp {

/// In-repo MT19937-64, draw-for-draw identical to std::mt19937_64.
///
/// Every parameter below (state size, twist, tempering, seeding) is fixed
/// by the C++ standard's engine specification, so the output stream is
/// bit-identical to the standard engine by construction — the golden-CSV
/// tests pin this transitively through every generated task set.  The
/// reason to own the engine is the refill strategy: the standard engine
/// tempers one word per call, while this one twists and tempers all 312
/// words into a flat output buffer in one pass, turning the per-draw cost
/// into a buffered load.  Task-set synthesis draws ~10^8 words per full
/// sweep, almost all in the Erdos-Renyi pair loop, which reads them as raw
/// words against an integer threshold through visit() (see
/// erdos_renyi.cpp).  The pass is compiled twice (see Isa), so it runs
/// four words wide where the CPU has AVX2.
class Mt64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// The instruction sets the refill pass is compiled for.
  enum class Isa : unsigned char { kBaseline, kAvx2 };
  /// The copy engines refill with by default: kAvx2 when this build has
  /// that copy and the CPU runs AVX2 (asked once, on first use), else
  /// kBaseline.
  static Isa native_isa();

  /// `isa` must be kBaseline or native_isa(); tests pass kBaseline to
  /// check the fallback copy on AVX2 hosts.
  explicit Mt64(std::uint64_t s, Isa isa = native_isa()) : isa_(isa) {
    assert(isa == Isa::kBaseline || isa == native_isa());
    seed(s);
  }

  void seed(std::uint64_t s) {
    state_[0] = s;
    for (unsigned i = 1; i < kN; ++i)
      state_[i] =
          6364136223846793005ull * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
    next_ = kN;  // buffer empty: first draw refills
  }

  result_type operator()() {
    if (next_ >= kN) refill();
    return out_[next_++];
  }

  /// Consumes the next `n` words of the stream, exactly the words n calls
  /// of operator() would return, in order: `fn(words, count)` receives them
  /// span by span straight from the output buffer, which is refilled
  /// between spans.  `words` is valid only during that call, and `fn` must
  /// not draw from this engine.
  template <typename Fn>
  void visit(std::size_t n, Fn&& fn) {
    while (n > 0) {
      if (next_ >= kN) refill();
      const std::size_t count = std::min<std::size_t>(n, kN - next_);
      const result_type* words = out_ + next_;
      next_ += static_cast<unsigned>(count);
      n -= count;
      fn(words, count);
    }
  }

 private:
  static constexpr unsigned kN = 312;
  static constexpr unsigned kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr std::uint64_t kUpper = 0xFFFFFFFF80000000ull;
  static constexpr std::uint64_t kLower = 0x000000007FFFFFFFull;

  // Twist state_ and bulk-temper it into out_, through the copy isa_
  // names.  Both copies inline the one body, twist_and_temper().
  void refill();
  void refill_baseline();
  void refill_avx2();              // built on x86-64 GCC/Clang only
  inline void twist_and_temper();  // defined in rng.cpp only

  std::uint64_t state_[kN];
  std::uint64_t out_[kN];
  unsigned next_ = kN;
  [[maybe_unused]] Isa isa_;  // read only where the AVX2 copy exists
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
      : engine_(seed), seed_(seed) {}

  /// Deterministically derive an independent sub-stream (e.g. one per
  /// sample index) without consuming state from this stream.
  Rng fork(std::uint64_t salt) const {
    // SplitMix64 finalizer over (seed_, salt); decorrelates nearby salts.
    std::uint64_t z = seed_ + salt * 0xBF58476D1CE4E5B9ull + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Canonical double in [0, 1): one raw engine draw scaled by 2^-64.
  /// Reproduces std::generate_canonical<double, 53, mt19937_64> (one draw,
  /// exact power-of-two scaling, >= 1 guard) bit-for-bit — verified
  /// against libstdc++ — while pinning the mapping in-repo, so the
  /// synthesis streams no longer depend on standard-library distribution
  /// internals and the inlined fast path avoids their per-call overhead.
  double canonical() {
    double c = static_cast<double>(engine_()) * 0x1p-64;
    if (c >= 1.0) c = std::nextafter(1.0, 0.0);
    return c;
  }

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) {
    assert(lo <= hi);
    return canonical() * (hi - lo) + lo;
  }

  /// True with probability p.
  bool bernoulli(double p) {
    assert(p >= 0.0 && p <= 1.0);
    // canonical() < p, algebraically rescaled by 2^64 (exact: power-of-two
    // scaling), so each trial is one convert + compare.  p == 1.0 needs the
    // canonical guard's "always true" semantics and is hoisted out (it
    // still consumes one draw, like the canonical form).
    const double x = static_cast<double>(engine_());
    if (p >= 1.0) return true;
    return x < p * 0x1p64;
  }

  /// One raw 64-bit engine draw.  Pairs with bernoulli_threshold(): the
  /// loop `raw() < T` consumes the same stream as bernoulli(p) and accepts
  /// the same draws, without the u64→double convert per trial.
  std::uint64_t raw() { return engine_(); }

  /// Integer acceptance threshold for p in [0, 1): the unique T with
  /// `raw() < T  ==  bernoulli(p)` draw-for-draw, i.e. the smallest u
  /// whose double conversion reaches p * 2^64 (u→(double)u is monotone, so
  /// the accepted set is exactly the prefix [0, T)).  p >= 1.0 has no
  /// finite threshold — bernoulli() accepts every draw — so callers hoist
  /// that case, like bernoulli() itself does.
  static std::uint64_t bernoulli_threshold(double p) {
    assert(p >= 0.0 && p < 1.0);
    const double scaled = p * 0x1p64;
    if (scaled <= 0.0) return 0;
    std::uint64_t lo = 0, hi = ~0ull;  // (double)hi = 2^64 >= scaled always
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (static_cast<double>(mid) >= scaled)
        hi = mid;
      else
        lo = mid + 1;
    }
    return hi;
  }

  /// Log-uniform real in [lo, hi]: exp(U[ln lo, ln hi]).  Used for task
  /// periods per the paper's setup (Sec. VII-A).
  double log_uniform(double lo, double hi) {
    assert(lo > 0.0 && lo <= hi);
    return std::exp(uniform_real(std::log(lo), std::log(hi)));
  }

  /// Log-uniform Time in [lo, hi] nanoseconds.
  Time log_uniform_time(Time lo, Time hi) {
    const double v = log_uniform(static_cast<double>(lo), static_cast<double>(hi));
    return std::clamp(static_cast<Time>(std::llround(v)), lo, hi);
  }

  /// Standard exponential variate (rate 1).
  double exponential() {
    return std::exponential_distribution<double>(1.0)(engine_);
  }

  /// Uniformly pick an index in [0, n).
  std::size_t index(std::size_t n) {
    assert(n > 0);
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Random composition: split `total` into `parts` non-negative integers
  /// summing to `total`, uniformly over compositions (stars-and-bars by
  /// sorting cut points).  Used to spread N_{i,q} requests over vertices.
  std::vector<std::int64_t> composition(std::int64_t total, std::size_t parts);

  Mt64& engine() { return engine_; }

 private:
  Mt64 engine_;
  std::uint64_t seed_ = 0;
};

}  // namespace dpcp
