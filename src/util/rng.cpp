#include "util/rng.hpp"

// The AVX2 refill copy needs the target attribute and
// __builtin_cpu_supports of GCC and Clang (which defines __GNUC__), and
// x86-64; other builds have only the baseline copy.
#if defined(__x86_64__) && defined(__GNUC__)
#define DPCP_MT64_AVX2 1
#else
#define DPCP_MT64_AVX2 0
#endif

namespace dpcp {

// The one twist-and-temper body.  always_inline puts a copy of it into
// each refill copy below, where it is compiled (and vectorized) for that
// copy's ISA; being a member keeps state_ and out_ provably apart.
[[gnu::always_inline]] inline void Mt64::twist_and_temper() {
  // In-place twist: positions >= kN - kM read state_[i + kM - kN], which
  // this same loop already updated — exactly the standard's recurrence
  // order, so the stream matches std::mt19937_64 word for word.  The index
  // wraparound is peeled into three modulo-free segments, and the
  // conditional xor of the twist matrix is the branchless -(x & 1) mask
  // form; this function carries the entire generation draw stream, so the
  // twist loop earns its micro-optimisation.
  const auto twist = [](std::uint64_t hi, std::uint64_t lo,
                        std::uint64_t far) {
    const std::uint64_t x = (hi & kUpper) | (lo & kLower);
    return far ^ (x >> 1) ^ ((-(x & 1)) & kMatrixA);
  };
  unsigned i = 0;
  for (; i < kN - kM; ++i)
    state_[i] = twist(state_[i], state_[i + 1], state_[i + kM]);
  for (; i < kN - 1; ++i)
    state_[i] = twist(state_[i], state_[i + 1], state_[i + kM - kN]);
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
  // Bulk temper into the output buffer: one tight pass the compiler can
  // pipeline, instead of one temper chain per draw.
  for (unsigned i = 0; i < kN; ++i) {
    std::uint64_t y = state_[i];
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    y ^= (y >> 43);
    out_[i] = y;
  }
  next_ = 0;
}

void Mt64::refill_baseline() { twist_and_temper(); }

#if DPCP_MT64_AVX2
[[gnu::target("avx2")]] void Mt64::refill_avx2() { twist_and_temper(); }
#endif

Mt64::Isa Mt64::native_isa() {
#if DPCP_MT64_AVX2
  static const Isa isa = [] {
    __builtin_cpu_init();  // needed if first asked from a static initializer
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kBaseline;
  }();
  return isa;
#else
  return Isa::kBaseline;
#endif
}

void Mt64::refill() {
#if DPCP_MT64_AVX2
  if (isa_ == Isa::kAvx2) return refill_avx2();
#endif
  refill_baseline();
}

std::vector<std::int64_t> Rng::composition(std::int64_t total,
                                           std::size_t parts) {
  assert(parts > 0);
  assert(total >= 0);
  std::vector<std::int64_t> out(parts, 0);
  if (total == 0) return out;
  if (parts == 1) {
    out[0] = total;
    return out;
  }
  // Choose parts-1 cut points uniformly in [0, total] (with repetition);
  // gaps between sorted cuts form a uniform weak composition.  The cuts
  // are drawn into `out` itself and differenced in place, back to front,
  // so the (hot) call allocates once instead of twice.
  for (std::size_t i = 0; i + 1 < parts; ++i) out[i] = uniform_int(0, total);
  if (total <= 256) {
    // Small value range (the per-resource request spread: total = N_{i,q}
    // <= 50 over ~|V| parts): counting sort beats comparison sort.
    std::vector<std::int32_t> count(static_cast<std::size_t>(total) + 1, 0);
    for (std::size_t i = 0; i + 1 < parts; ++i)
      ++count[static_cast<std::size_t>(out[i])];
    std::size_t i = 0;
    for (std::int64_t v = 0; v <= total; ++v)
      for (std::int32_t c = count[static_cast<std::size_t>(v)]; c > 0; --c)
        out[i++] = v;
  } else {
    std::sort(out.begin(), out.end() - 1);
  }
  out[parts - 1] = total - out[parts - 2];
  for (std::size_t i = parts - 2; i > 0; --i) out[i] -= out[i - 1];
  return out;
}

}  // namespace dpcp
