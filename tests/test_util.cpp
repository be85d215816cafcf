// Unit tests for the util substrate: time formatting/arithmetic, RNG
// distributions and substreams, the fixed-point solver, statistics, table
// rendering and the worker pool.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/fixed_point.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
#include "util/workers.hpp"

namespace dpcp {
namespace {

// ---------- strict numeric parsing -----------------------------------------

TEST(Parse, AcceptsExactIntegers) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("+8"), 8);
  EXPECT_EQ(parse_int("9223372036854775807"), INT64_MAX);
}

TEST(Parse, RejectsWhatAtoiSilentlyMangles) {
  // Every one of these was a silent 0 / truncation / wrap under atoi.
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("12abc").has_value());
  EXPECT_FALSE(parse_int("1O0").has_value());  // letter O typo
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int(" 5").has_value());
  EXPECT_FALSE(parse_int("5 ").has_value());
  EXPECT_FALSE(parse_int("5.0").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());  // overflow
  EXPECT_FALSE(parse_int("0x10").has_value());  // base 10 only
}

TEST(Parse, EnforcesRange) {
  EXPECT_EQ(parse_int("100", 1, 100), 100);
  EXPECT_FALSE(parse_int("101", 1, 100).has_value());
  EXPECT_FALSE(parse_int("0", 1, 100).has_value());
  EXPECT_FALSE(parse_int("-1", 0, 100).has_value());
}

TEST(Parse, UintCoversFullUint64Range) {
  // The documented seed range is uint64; the historical parse_int route
  // silently rejected everything above INT64_MAX.
  EXPECT_EQ(parse_uint("0"), 0ull);
  EXPECT_EQ(parse_uint("42"), 42ull);
  EXPECT_EQ(parse_uint("9223372036854775808"),
            9'223'372'036'854'775'808ull);            // INT64_MAX + 1
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
}

TEST(Parse, UintRejectsSignsGarbageAndOverflow) {
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("-1").has_value());   // strtoull would wrap
  EXPECT_FALSE(parse_uint("+5").has_value());   // digits only
  EXPECT_FALSE(parse_uint(" 5").has_value());
  EXPECT_FALSE(parse_uint("5 ").has_value());
  EXPECT_FALSE(parse_uint("12abc").has_value());
  EXPECT_FALSE(parse_uint("0x10").has_value());
  EXPECT_FALSE(parse_uint("18446744073709551616").has_value());  // 2^64
  EXPECT_FALSE(parse_uint("5", 10, 20).has_value());
  EXPECT_FALSE(parse_uint("21", 10, 20).has_value());
  EXPECT_EQ(parse_uint("15", 10, 20), 15ull);
}

TEST(Parse, Doubles) {
  EXPECT_DOUBLE_EQ(*parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_double("1e-3"), 1e-3);
  EXPECT_FALSE(parse_double("0.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());
  EXPECT_FALSE(parse_double("0x10").has_value());  // no hex floats either
}

// ---------- time ----------------------------------------------------------

TEST(Time, UnitConstantsCompose) {
  EXPECT_EQ(micros(1), 1000 * kNanosecond);
  EXPECT_EQ(millis(1), 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(millis(10) + micros(500), 10'500'000);
}

TEST(Time, DivCeil) {
  EXPECT_EQ(div_ceil(0, 5), 0);
  EXPECT_EQ(div_ceil(1, 5), 1);
  EXPECT_EQ(div_ceil(5, 5), 1);
  EXPECT_EQ(div_ceil(6, 5), 2);
  EXPECT_EQ(div_ceil(10, 1), 10);
  // A period near INT64_MAX must not overflow the numerator.
  EXPECT_EQ(div_ceil(2, INT64_MAX), 1);
  EXPECT_EQ(div_ceil(INT64_MAX, INT64_MAX), 1);
  EXPECT_EQ(div_ceil(INT64_MAX - 1, INT64_MAX), 1);
  EXPECT_EQ(div_ceil(0, INT64_MAX), 0);
  EXPECT_EQ(div_ceil(INT64_MAX, 2), INT64_MAX / 2 + 1);
}

TEST(Time, FormatPicksUnits) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(micros(80)), "80.000us");
  EXPECT_EQ(format_time(millis(12) + micros(500)), "12.500ms");
  EXPECT_EQ(format_time(2 * kSecond), "2.000s");
  EXPECT_EQ(format_time(kTimeInfinity), "inf");
  EXPECT_EQ(format_time(-millis(1)), "-1.000ms");
}

// ---------- rng -----------------------------------------------------------

TEST(Rng, UniformIntWithinBoundsAndCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.uniform_int(0, 1'000'000);
    EXPECT_EQ(va, b.uniform_int(0, 1'000'000));
    if (va != c.uniform_int(0, 1'000'000)) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(Rng, ForkedStreamsAreIndependentOfParentConsumption) {
  Rng parent(99);
  Rng f1 = parent.fork(5);
  (void)parent.uniform_int(0, 100);  // consume parent state
  Rng f2 = parent.fork(5);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(f1.uniform_int(0, 1 << 30), f2.uniform_int(0, 1 << 30));
}

TEST(Rng, ForkedStreamsWithDifferentSaltsDiffer) {
  Rng parent(99);
  Rng f1 = parent.fork(1);
  Rng f2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (f1.uniform_int(0, 1 << 30) == f2.uniform_int(0, 1 << 30)) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, LogUniformStaysInRangeAndFillsDecades) {
  Rng rng(11);
  int low_decade = 0;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.log_uniform(10.0, 1000.0);
    ASSERT_GE(v, 10.0);
    ASSERT_LE(v, 1000.0);
    if (v < 100.0) ++low_decade;
  }
  // log-uniform: half the mass in [10,100).
  EXPECT_NEAR(low_decade / 5000.0, 0.5, 0.05);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.bernoulli(0.25)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

// The refill copies this host runs: the baseline copy always, so the
// fallback stays tested on AVX2 hosts, and the AVX2 copy where the CPU
// has AVX2.
std::vector<Mt64::Isa> runnable_refill_copies() {
  std::vector<Mt64::Isa> isas{Mt64::Isa::kBaseline};
  if (Mt64::native_isa() == Mt64::Isa::kAvx2)
    isas.push_back(Mt64::Isa::kAvx2);
  return isas;
}

TEST(Rng, Mt64MatchesStdMt19937_64) {
  // The in-repo engine must be draw-for-draw identical to the standard
  // engine for any seed, through either refill copy: every generated task
  // set (and so every golden CSV) depends on this stream.  Cross the
  // 312-word refill boundary several times and sample odd seeds including
  // 0 and UINT64_MAX.
  for (const Mt64::Isa isa : runnable_refill_copies()) {
    for (std::uint64_t seed : {0ull, 1ull, 42ull, 0x9E3779B97F4A7C15ull,
                               0xFFFFFFFFFFFFFFFFull}) {
      Mt64 ours(seed, isa);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(ours(), ref())
            << "seed " << seed << " copy " << static_cast<int>(isa);
    }
  }
}

TEST(Rng, Mt64VisitorMatchesOperatorCall) {
  // visit(n, fn) must hand fn exactly the next n words that operator()
  // (and so std::mt19937_64) yields, across refills: spans around the
  // 312-word buffer size, interleaved with single draws, from a fresh
  // buffer, partly consumed ones and an exactly drained one.  With 310
  // consumed, the span of 1 starts with one buffered word left.  Both
  // engines refill through the copy under test.
  for (const Mt64::Isa isa : runnable_refill_copies()) {
    SCOPED_TRACE(static_cast<int>(isa));
    for (const int consumed : {0, 7, 310, 312}) {
      Mt64 ours(42, isa), single(42, isa);
      std::mt19937_64 ref(42);
      for (int i = 0; i < consumed; ++i) {
        single();
        ASSERT_EQ(ours(), ref());
      }
      for (const std::size_t n : {0, 1, 311, 312, 313, 1000}) {
        std::size_t seen = 0;
        ours.visit(n, [&](const std::uint64_t* words, std::size_t count) {
          ASSERT_GT(count, 0u);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(words[i], single()) << "n=" << n << " at " << seen + i;
            ASSERT_EQ(words[i], ref());
          }
          seen += count;
        });
        ASSERT_EQ(seen, n);
        ASSERT_EQ(ours(), single()) << "single draw after a span of " << n;
        ref();
      }
    }
  }
}

TEST(Rng, BernoulliThresholdIsExact) {
  // raw() < bernoulli_threshold(p) must accept exactly the draws that
  // bernoulli(p) accepts, from the same stream position.  Check the edge
  // loop's actual probabilities plus degenerate and near-1 values.
  for (double p : {0.0, 1e-12, 0.05, 0.1, 0.25, 0.5, 0.9, 0.999,
                   1.0 - 1e-15}) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    Rng a(77), b(77);
    for (int i = 0; i < 4000; ++i)
      ASSERT_EQ(a.raw() < t, b.bernoulli(p)) << "p=" << p << " i=" << i;
  }
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
}

TEST(Rng, CompositionSumsAndIsNonNegative) {
  Rng rng(3);
  for (int total : {0, 1, 7, 100, 12345}) {
    for (std::size_t parts : {1u, 2u, 5u, 37u}) {
      const auto c = rng.composition(total, parts);
      ASSERT_EQ(c.size(), parts);
      std::int64_t sum = 0;
      for (auto v : c) {
        ASSERT_GE(v, 0);
        sum += v;
      }
      EXPECT_EQ(sum, total);
    }
  }
}

TEST(Rng, CompositionSpreadsMass) {
  Rng rng(4);
  // Average share of part 0 over many draws must approach total/parts.
  double sum0 = 0;
  const int draws = 3000;
  for (int i = 0; i < draws; ++i) sum0 += rng.composition(100, 4)[0];
  EXPECT_NEAR(sum0 / draws, 25.0, 2.0);
}

// ---------- fixed point -----------------------------------------------------

TEST(FixedPoint, FindsLeastFixedPoint) {
  // x = 10 + floor(x/2): least fixed point is 19 (19 = 10 + 9).
  auto f = [](Time x) { return 10 + x / 2; };
  const auto r = solve_fixed_point(f, 0, 1000);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, 19);
  EXPECT_FALSE(r.exceeded_cap);
}

TEST(FixedPoint, ConstantFunctionConvergesImmediately) {
  auto f = [](Time) { return 42; };
  const auto r = solve_fixed_point(f, 0, 100);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, 42);
}

TEST(FixedPoint, DivergenceHitsCap) {
  auto f = [](Time x) { return x + 7; };
  const auto r = solve_fixed_point(f, 0, 1000);
  EXPECT_FALSE(r.value.has_value());
  EXPECT_TRUE(r.exceeded_cap);
}

TEST(FixedPoint, StartAtFixedPointIsIdentity) {
  auto f = [](Time x) { return x < 50 ? 50 : x; };
  const auto r = solve_fixed_point(f, 50, 100);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, 50);
}

TEST(FixedPoint, RtaShapedRecurrence) {
  // Classic uniprocessor RTA: R = 3 + ceil(R/10)*2 + ceil(R/25)*5.
  auto f = [](Time r) {
    return 3 + div_ceil(r, 10) * 2 + div_ceil(r, 25) * 5;
  };
  const auto r = solve_fixed_point(f, 3, 1000);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, f(*r.value));
  EXPECT_LE(*r.value, 20);
}

// ---------- stats -----------------------------------------------------------

TEST(Stats, RunningStatMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, AcceptanceCounter) {
  AcceptanceCounter c;
  c.add(true);
  c.add(false);
  c.add(true);
  c.add(true);
  EXPECT_EQ(c.total(), 4);
  EXPECT_EQ(c.accepted(), 3);
  EXPECT_DOUBLE_EQ(c.ratio(), 0.75);
  AcceptanceCounter d;
  d.add(false);
  d.merge(c);
  EXPECT_EQ(d.total(), 5);
  EXPECT_EQ(d.accepted(), 3);
}

// ---------- table -----------------------------------------------------------

TEST(Table, TextAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"long-name", "2"});
  const std::string s = t.to_text();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"has,comma", "has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(strfmt("%.2f", 1.239), "1.24");
}

// ---------- worker pool ------------------------------------------------------

struct Drained {
  int once = 0;     // items that ran exactly once
  int workers = 0;  // runs of the worker
};

/// Drains a queue of `items` work items, an atomic index as in every
/// caller, on run_workers(n).
Drained drain_queue(std::size_t n, std::size_t items) {
  std::vector<std::atomic<int>> runs(items);
  std::atomic<std::size_t> next{0};
  std::atomic<int> workers{0};
  run_workers(n, [&] {
    ++workers;
    for (std::size_t k = next++; k < items; k = next++) ++runs[k];
  });
  Drained d;
  for (const std::atomic<int>& r : runs) d.once += r == 1 ? 1 : 0;
  d.workers = workers;
  return d;
}

TEST(Workers, EveryItemRunsOnceAndWorkerErrorsReachTheCaller) {
  for (int n : {0, 1, 3, 16}) {
    const std::size_t workers = static_cast<std::size_t>(n);
    const Drained d = drain_queue(workers, 1000);
    EXPECT_EQ(d.once, 1000) << "n " << n;
    EXPECT_EQ(d.workers, std::max(n, 1)) << "n " << n;
    EXPECT_THROW(run_workers(workers, [] { throw std::runtime_error("x"); }),
                 std::runtime_error)
        << "n " << n;
  }
}

TEST(Workers, OneWorkerRunsOnTheCallingThread) {
  std::thread::id ran_on;
  run_workers(1, [&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// ASan and TSan cannot run under an address-space limit (their shadow
// memory alone is far larger), so sanitizer builds leave this test out.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
TEST(Workers, RefusedThreadsLeaveTheQueueToTheWorkersThatStarted) {
  // 256 MiB of address space holds a few dozen 8 MiB thread stacks, not
  // 64: std::thread throws for the rest, and the queue must still drain.
  const auto child = [] {
    rlimit limit{};
    limit.rlim_cur = limit.rlim_max = 256u << 20;
    setrlimit(RLIMIT_AS, &limit);
    const Drained d = drain_queue(64, 1000);
    std::exit(d.once == 1000 && d.workers < 64 ? 0 : 1);
  };
  EXPECT_EXIT(child(), ::testing::ExitedWithCode(0), "");
}
#endif

}  // namespace
}  // namespace dpcp
