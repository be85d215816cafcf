// Contract tests of the simulator's global EventQueue: deterministic
// (time, seq) ordering — same-time events pop in schedule order — plus the
// pending/scheduled counters.  These pin the tie-break rule the
// simulator's behaviour golden (test_sim_golden.cpp) depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace dpcp {
namespace {

TEST(EventQueue, SameTimeEventsPopInScheduleOrder) {
  EventQueue q;
  for (int i = 0; i < 64; ++i)
    q.schedule(100, SimEventKind::kSegmentDone, i);
  for (int i = 0; i < 64; ++i) {
    const SimEvent e = q.pop();
    EXPECT_EQ(e.time, 100);
    EXPECT_EQ(e.subject, i);
    EXPECT_EQ(e.seq, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopsByTimeThenScheduleOrderUnderShuffledInsertion) {
  // Schedule 256 events with shuffled times (and deliberate duplicates);
  // they must pop sorted by (time, seq) regardless of insertion order.
  Rng rng(7);
  EventQueue q;
  std::vector<SimEvent> scheduled;
  for (int i = 0; i < 256; ++i) {
    const Time t = rng.uniform_int(0, 15);  // heavy collisions
    q.schedule(t, SimEventKind::kJobRelease, i);
    scheduled.push_back(SimEvent{t, i, SimEventKind::kJobRelease, i, 0});
  }
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const SimEvent& a, const SimEvent& b) {
                     return a.time < b.time;  // stable => seq order at ties
                   });
  for (const SimEvent& want : scheduled) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.next_time(), want.time);
    const SimEvent got = q.pop();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.subject, want.subject);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.scheduled(), 256);
}

TEST(EventQueue, SequenceNumbersStayMonotoneAcrossInterleavedPops) {
  // seq is assigned at schedule() time and never reused, so events
  // scheduled after pops still lose ties against nothing and order
  // deterministically among themselves.
  EventQueue q;
  q.schedule(5, SimEventKind::kJobRelease, 0);
  q.schedule(5, SimEventKind::kJobRelease, 1);
  EXPECT_EQ(q.pop().subject, 0);
  q.schedule(5, SimEventKind::kJobRelease, 2);  // same time, later seq
  q.schedule(3, SimEventKind::kJobRelease, 3);  // earlier time wins anyway
  EXPECT_EQ(q.pop().subject, 3);
  EXPECT_EQ(q.pop().subject, 1);
  EXPECT_EQ(q.pop().subject, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.scheduled(), 4);
}

TEST(EventQueue, PendingAndPeekTrackTheHeap) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  q.schedule(9, SimEventKind::kSegmentDone, 2, /*token=*/42);
  q.schedule(4, SimEventKind::kJobRelease, 1);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.next_time(), 4);
  EXPECT_EQ(q.peek().kind, SimEventKind::kJobRelease);
  q.pop();
  EXPECT_EQ(q.peek().token, 42u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, ComparatorIsAStrictWeakOrderOnTimeSeq) {
  const SimEventAfter after;
  const SimEvent a{10, 0, SimEventKind::kJobRelease, 0, 0};
  const SimEvent b{10, 1, SimEventKind::kSegmentDone, 1, 0};
  const SimEvent c{20, 2, SimEventKind::kJobRelease, 2, 0};
  EXPECT_FALSE(after(a, a));            // irreflexive
  EXPECT_TRUE(after(b, a));             // same time: later seq fires after
  EXPECT_FALSE(after(a, b));
  EXPECT_TRUE(after(c, a) && after(c, b));  // later time fires after
  EXPECT_FALSE(after(a, c));
}

}  // namespace
}  // namespace dpcp
