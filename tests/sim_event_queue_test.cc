#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace phantom::sim {
namespace {

// Runs every pending event in key order.
void drain(EventQueue& q) {
  Time clock;
  while (q.run_next(Time::max(), clock)) {
  }
}

// Runs the earliest event; returns its time.
Time run_one(EventQueue& q) {
  Time clock;
  EXPECT_TRUE(q.run_next(Time::max(), clock));
  return clock;
}

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ms(3), [&] { order.push_back(3); });
  q.schedule(Time::ms(1), [&] { order.push_back(1); });
  q.schedule(Time::ms(2), [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimestampsFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::ms(5), [&order, i] { order.push_back(i); });
  }
  drain(q);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeReportsEarliestLiveEvent) {
  EventQueue q;
  q.schedule(Time::ms(7), [] {});
  q.schedule(Time::ms(4), [] {});
  EXPECT_EQ(q.next_time(), Time::ms(4));
}

TEST(EventQueueTest, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(Time::ms(1), [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelHeadExposesNextEvent) {
  EventQueue q;
  const EventId head = q.schedule(Time::ms(1), [] {});
  q.schedule(Time::ms(2), [] {});
  q.cancel(head);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), Time::ms(2));
}

TEST(EventQueueTest, DoubleCancelIsHarmless) {
  EventQueue q;
  const EventId id = q.schedule(Time::ms(1), [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelAfterFireIsHarmless) {
  EventQueue q;
  const EventId id = q.schedule(Time::ms(1), [] {});
  run_one(q);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelInvalidIdIsHarmless) {
  EventQueue q;
  q.cancel(EventId{});
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SizeTracksLiveEventsThroughCancel) {
  EventQueue q;
  const EventId a = q.schedule(Time::ms(1), [] {});
  q.schedule(Time::ms(2), [] {});
  q.schedule(Time::ms(3), [] {});
  EXPECT_EQ(q.size(), 3u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 2u);
  run_one(q);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(Time::us(42), [] {});
  EXPECT_EQ(run_one(q), Time::us(42));
}

TEST(EventQueueTest, SchedulingBeforeLastPopThrows) {
  EventQueue q;
  q.schedule(Time::ms(5), [] {});
  run_one(q);
  EXPECT_THROW(q.schedule(Time::ms(2), [] {}), std::logic_error);
  // Exactly at the floor is fine (same-instant follow-up events).
  EXPECT_NO_THROW(q.schedule(Time::ms(5), [] {}));
}

TEST(EventQueueTest, NullCallbackThrows) {
  EventQueue q;
  EXPECT_THROW(q.schedule(Time::ms(1), nullptr), std::logic_error);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ManyInterleavedOperationsStayOrdered) {
  EventQueue q;
  std::vector<Time> popped;
  std::vector<EventId> ids;
  for (int i = 100; i > 0; --i) {
    ids.push_back(q.schedule(Time::us(i), [] {}));
  }
  // Cancel every third event.
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  Time clock;
  while (q.run_next(Time::max(), clock)) popped.push_back(clock);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1], popped[i]);
  }
  EXPECT_EQ(popped.size(), 100u - 34u);
}

// Cancelling must destroy the captured state *now*, not when the
// tombstone eventually reaches the heap top. A chaos run cancels
// timers whose closures pin shared_ptrs to whole subsystems; holding
// them until pop time would stretch lifetimes unpredictably.
TEST(EventQueueTest, CancelReleasesCapturedStateEagerly) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  const EventId id = q.schedule(Time::ms(10), [s = std::move(sentinel)] {
    (void)s;
  });
  // Keep an earlier event in front so the cancelled one never becomes
  // the heap top before we check.
  q.schedule(Time::ms(1), [] {});
  EXPECT_FALSE(watch.expired());
  q.cancel(id);
  EXPECT_TRUE(watch.expired()) << "capture must be destroyed at cancel time";
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PoppedCallbackStateReleasedAfterInvocation) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  bool alive_while_running = false;
  q.schedule(Time::ms(1), [s = std::move(sentinel), &watch,
                           &alive_while_running] {
    (void)s;
    alive_while_running = !watch.expired();  // the running slot owns it
  });
  run_one(q);
  EXPECT_TRUE(alive_while_running);
  EXPECT_TRUE(watch.expired());
}

// A stale EventId whose slot has been recycled by a newer event must
// not cancel the newcomer (the generation check).
TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId old_id = q.schedule(Time::ms(1), [] {});
  q.cancel(old_id);
  // The freed slot is reused by the very next schedule.
  bool fired = false;
  q.schedule(Time::ms(2), [&] { fired = true; });
  q.cancel(old_id);  // stale: same slot, different generation
  ASSERT_EQ(q.size(), 1u);
  run_one(q);
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, StaleIdSurvivesManyRecycles) {
  EventQueue q;
  std::vector<EventId> stale;
  for (int round = 0; round < 50; ++round) {
    const EventId id = q.schedule(Time::ms(1), [] {});
    for (const EventId& s : stale) q.cancel(s);  // all must be no-ops
    EXPECT_EQ(q.size(), 1u);
    q.cancel(id);
    stale.push_back(id);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PeakSizeTracksHighWaterMark) {
  EventQueue q;
  EXPECT_EQ(q.peak_size(), 0u);
  const EventId a = q.schedule(Time::ms(1), [] {});
  q.schedule(Time::ms(2), [] {});
  q.schedule(Time::ms(3), [] {});
  EXPECT_EQ(q.peak_size(), 3u);
  q.cancel(a);
  run_one(q);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.peak_size(), 3u);  // the peak never decays
  q.schedule(Time::ms(4), [] {});
  q.schedule(Time::ms(5), [] {});
  q.schedule(Time::ms(6), [] {});
  EXPECT_EQ(q.peak_size(), 4u);
}

// --- Reservations: a key drawn now, filed later, fires where it was
// drawn ---

TEST(EventQueueTest, ReservationInThePastThrows) {
  EventQueue q;
  q.schedule(Time::ms(5), [] {});
  run_one(q);
  EXPECT_THROW(q.reserve(Time::ms(2)), std::logic_error);
  EXPECT_NO_THROW(q.reserve(Time::ms(5)));
}

TEST(EventQueueTest, SchedulingAPassedReservationThrows) {
  EventQueue q;
  const Reservation early = q.reserve(Time::ms(3));
  const Reservation same_instant = q.reserve(Time::ms(5));
  q.schedule(Time::ms(5), [] {});
  run_one(q);  // the clock is now past `early`, and past `same_instant`
               // too: it orders before the event just run at 5 ms
  EXPECT_THROW(q.schedule(early, [] {}), std::logic_error);
  EXPECT_THROW(q.schedule(same_instant, [] {}), std::logic_error);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SameInstantReservationsFireInReservationOrder) {
  EventQueue q;
  std::vector<int> order;
  const Reservation first = q.reserve(Time::ms(5));
  q.schedule(Time::ms(5), [&] { order.push_back(2); });
  const Reservation second = q.reserve(Time::ms(5));
  q.schedule(Time::ms(5), [&] { order.push_back(4); });
  // Filed in the opposite order, after the plain events.
  q.schedule(second, [&] { order.push_back(3); });
  q.schedule(first, [&] { order.push_back(1); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelWorksOnAReservedEvent) {
  EventQueue q;
  bool fired = false;
  const Reservation key = q.reserve(Time::ms(2));
  q.schedule(Time::ms(1), [] {});
  const EventId id = q.schedule(key, [&] { fired = true; });
  EXPECT_EQ(q.size(), 2u);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  drain(q);
  EXPECT_FALSE(fired);
}

// run_next() leaves the heap root vacant for the callback's first
// schedule; every other path must see a settled heap.
TEST(EventQueueTest, VacantRootIsFilledOrSettled) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(Time::ms(10 + i), [&order, i] { order.push_back(i); });
  }
  q.schedule(Time::ms(1), [&] {
    order.push_back(-1);
    // Fills the vacant root with an event that must sink below others.
    q.schedule(Time::ms(20), [&] { order.push_back(99); });
    q.schedule(Time::ms(2), [&] { order.push_back(-2); });
  });
  run_one(q);
  EXPECT_EQ(q.next_time(), Time::ms(2));
  run_one(q);
  // A run whose callback schedules nothing: next_time() settles.
  EXPECT_EQ(q.next_time(), Time::ms(10));
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{-1, -2, 0, 1, 2, 3, 4, 5, 6, 7, 99}));
}

// Zero-delay self-rescheduling at one timestamp must still interleave
// FIFO with other same-time events.
TEST(EventQueueTest, SameTimeRescheduleRunsAfterAlreadyQueuedPeers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ms(1), [&] {
    order.push_back(0);
    q.schedule(Time::ms(1), [&] { order.push_back(2); });
  });
  q.schedule(Time::ms(1), [&] { order.push_back(1); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- run_next runs each callback in its slot ---

TEST(EventQueueTest, CallbackCancellingItselfIsANoOp) {
  EventQueue q;
  bool later_fired = false;
  q.schedule(Time::ms(2), [&] { later_fired = true; });
  EventId self;
  std::size_t size_before = 0;
  std::size_t size_after = 0;
  self = q.schedule(Time::ms(1), [&] {
    size_before = q.size();
    q.cancel(self);
    size_after = q.size();
  });
  EXPECT_EQ(run_one(q), Time::ms(1));
  EXPECT_EQ(size_before, 1u);
  EXPECT_EQ(size_after, 1u);
  EXPECT_EQ(q.size(), 1u);
  drain(q);
  EXPECT_TRUE(later_fired);
}

// The running closure stays where it is while the events it schedules
// grow the slot table by many chunks (an address sanitizer build
// reports any read of a moved-from slot).
TEST(EventQueueTest, RunningCallbackSurvivesSlotTableGrowth) {
  EventQueue q;
  constexpr int kScheduled = 1000;  // well over one slot chunk
  std::vector<int> order;
  int token_seen = 0;
  auto token = std::make_shared<int>(41);
  q.schedule(Time::ms(1), [&q, &order, &token_seen, token] {
    for (int i = 0; i < kScheduled; ++i) {
      q.schedule(Time::ms(2), [&order, i] { order.push_back(i); });
    }
    token_seen = *token;  // the closure's own capture, read after growth
  });
  token.reset();
  run_one(q);
  EXPECT_EQ(token_seen, 41);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kScheduled));
  drain(q);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kScheduled));
  for (int i = 0; i < kScheduled; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueTest, ThrowingCallbackReleasesItsSlotAndKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  q.schedule(Time::ms(3), [&] { order.push_back(3); });
  const EventId thrower =
      q.schedule(Time::ms(1), [t = std::move(token)] {
        (void)t;
        throw std::runtime_error{"model fault"};
      });
  q.schedule(Time::ms(2), [&] { order.push_back(2); });
  Time clock;
  EXPECT_THROW(q.run_next(Time::max(), clock), std::runtime_error);
  EXPECT_EQ(clock, Time::ms(1));
  EXPECT_TRUE(watch.expired()) << "the thrower's captures must be destroyed";
  EXPECT_EQ(q.size(), 2u);
  q.cancel(thrower);  // already run: a no-op
  EXPECT_EQ(q.size(), 2u);
  // The freed slot takes a new event, and every event keeps its order.
  q.schedule(Time::ms(2), [&] { order.push_back(4); });
  while (q.run_next(Time::max(), clock)) {
  }
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3}));
}

// The TCP retransmission-timer shape: one timer cancelled and re-filed
// over and over next to a steady set of live events. Compaction keeps
// the heap at the live count instead of one tombstone per re-arm.
TEST(EventQueueTest, RearmedTimerKeepsHeapAtLiveCountAndPopsInKeyOrder) {
  EventQueue q;
  constexpr int kLive = 64;
  constexpr int kRearms = 100'000;
  std::vector<std::pair<Time, int>> fired;
  for (int i = 0; i < kLive; ++i) {
    const Time at = Time::us(7 * (kLive - i));
    q.schedule(at, [&fired, at, i] { fired.emplace_back(at, i); });
  }
  EventId timer;
  std::size_t max_nodes = 0;
  for (int k = 0; k < kRearms; ++k) {
    q.cancel(timer);
    const Time at = Time::us(100 + k % 500);
    timer = q.schedule(at, [&fired, at, k] { fired.emplace_back(at, -1 - k); });
    max_nodes = std::max(max_nodes, q.heap_nodes());
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kLive + 1));
  EXPECT_LE(max_nodes, 2u * (kLive + 1));
  drain(q);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kLive + 1));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1].first, fired[i].first) << "at " << i;
  }
  // The last re-arm is the only timer that fires.
  const auto timer_fired =
      std::count_if(fired.begin(), fired.end(),
                    [](const auto& f) { return f.second < 0; });
  EXPECT_EQ(timer_fired, 1);
  EXPECT_NE(std::find(fired.begin(), fired.end(),
                      std::pair{Time::us(100 + (kRearms - 1) % 500), -kRearms}),
            fired.end());
}

}  // namespace
}  // namespace phantom::sim
