#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace phantom::sim {
namespace {

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
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimestampsFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::ms(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
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
  q.pop().callback();
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
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(Time::us(42), [] {});
  EXPECT_EQ(q.pop().time, Time::us(42));
}

TEST(EventQueueTest, SchedulingBeforeLastPopThrows) {
  EventQueue q;
  q.schedule(Time::ms(5), [] {});
  q.pop();
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
  while (!q.empty()) popped.push_back(q.pop().time);
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
  q.schedule(Time::ms(1), [s = std::move(sentinel)] { (void)s; });
  {
    auto popped = q.pop();
    popped.callback();
    EXPECT_FALSE(watch.expired());  // the popped holder still owns it
  }
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
  q.pop().callback();
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
  q.pop();
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
  q.pop();
  EXPECT_THROW(q.reserve(Time::ms(2)), std::logic_error);
  EXPECT_NO_THROW(q.reserve(Time::ms(5)));
}

TEST(EventQueueTest, SchedulingAPassedReservationThrows) {
  EventQueue q;
  const Reservation early = q.reserve(Time::ms(3));
  const Reservation same_instant = q.reserve(Time::ms(5));
  q.schedule(Time::ms(5), [] {});
  q.pop();  // the clock is now past `early`, and past `same_instant` too:
            // it orders before the event just popped at 5 ms
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
  while (!q.empty()) q.pop().callback();
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
  while (!q.empty()) q.pop().callback();
  EXPECT_FALSE(fired);
}

// pop() leaves the heap root vacant for the callback's first schedule;
// every other path must see a settled heap.
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
  q.pop().callback();
  EXPECT_EQ(q.next_time(), Time::ms(2));
  q.pop().callback();
  // A pop whose callback schedules nothing: next_time() settles.
  EXPECT_EQ(q.next_time(), Time::ms(10));
  while (!q.empty()) q.pop().callback();
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
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace phantom::sim
