#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace phantom::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(SimulatorTest, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<Time> seen;
  sim.schedule(Time::ms(2), [&] { seen.push_back(sim.now()); });
  sim.schedule(Time::ms(5), [&] { seen.push_back(sim.now()); });
  const auto n = sim.run();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(seen, (std::vector<Time>{Time::ms(2), Time::ms(5)}));
  EXPECT_EQ(sim.now(), Time::ms(5));
}

TEST(SimulatorTest, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 5) sim.schedule(Time::ms(1), tick);
  };
  sim.schedule(Time::ms(1), tick);
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), Time::ms(5));
}

TEST(SimulatorTest, ZeroDelayEventRunsAtCurrentInstant) {
  Simulator sim;
  Time inner_time = Time::max();
  sim.schedule(Time::ms(3), [&] {
    sim.schedule(Time::zero(), [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, Time::ms(3));
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Time::ms(1), [&] { ++fired; });
  sim.schedule(Time::ms(10), [&] { ++fired; });
  const auto n = sim.run_until(Time::ms(5));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::ms(5));
  EXPECT_TRUE(sim.pending());
  sim.run_until(Time::ms(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Time::ms(20));
}

TEST(SimulatorTest, RunUntilIncludesEventsExactlyAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.schedule(Time::ms(5), [&] { fired = true; });
  sim.run_until(Time::ms(5));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StopAbortsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Time::ms(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(Time::ms(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.pending());
  // A subsequent run resumes.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(Time::ms(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, ScheduleAtUsesAbsoluteTime) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule(Time::ms(1), [&] {
    sim.schedule_at(Time::ms(10), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, Time::ms(10));
}

TEST(SimulatorTest, PendingCountReflectsQueue) {
  Simulator sim;
  sim.schedule(Time::ms(1), [] {});
  sim.schedule(Time::ms(2), [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_FALSE(sim.pending());
}

TEST(SimulatorTest, SameSeedSameStream) {
  Simulator a{42}, b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.rng().uniform(0, 1), b.rng().uniform(0, 1));
  }
}

TEST(SimulatorTest, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Time::ms(-1), [] {}), std::logic_error);
}

TEST(SimulatorTest, ScheduleAtInThePastThrows) {
  Simulator sim;
  sim.schedule(Time::ms(5), [&] {
    EXPECT_THROW(sim.schedule_at(Time::ms(2), [] {}), std::logic_error);
  });
  sim.run();
  // Scheduling exactly at `now` is allowed.
  EXPECT_NO_THROW(sim.schedule_at(sim.now(), [] {}));
}

TEST(SimulatorTest, RunUntilPastDeadlineThrows) {
  Simulator sim;
  sim.schedule(Time::ms(5), [] {});
  sim.run();
  EXPECT_EQ(sim.now(), Time::ms(5));
  EXPECT_THROW(sim.run_until(Time::ms(2)), std::logic_error);
  EXPECT_NO_THROW(sim.run_until(sim.now()));
}

TEST(SimulatorTest, SchedulingAReservationTheClockPassedThrows) {
  // run_until() moves the clock past the last popped event, so the
  // simulator, not only the queue, must check a reserved key.
  Simulator sim;
  const Reservation key = sim.reserve(Time::ms(1));
  sim.run_until(Time::ms(5));
  EXPECT_THROW(sim.schedule(key, [] {}), std::logic_error);
  EXPECT_FALSE(sim.pending());
  const Reservation now_key = sim.reserve(Time::zero());
  EXPECT_NO_THROW(sim.schedule(now_key, [] {}));
}

TEST(SimulatorTest, RejectedEventIsNotEnqueued) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Time::ms(-3), [] {}), std::logic_error);
  EXPECT_FALSE(sim.pending());
}

TEST(SimulatorTest, PeriodicProcessPattern) {
  // The idiom every model's interval timer uses.
  Simulator sim;
  int intervals = 0;
  std::function<void()> timer = [&] {
    ++intervals;
    sim.schedule(Time::ms(1), timer);
  };
  sim.schedule(Time::ms(1), timer);
  sim.run_until(Time::ms(100));
  EXPECT_EQ(intervals, 100);
}

TEST(RunGuardedTest, DrainsAndAdvancesToDeadline) {
  Simulator sim;
  int ran = 0;
  sim.schedule(Time::ms(3), [&] { ++ran; });
  RunGuard guard;
  guard.deadline = Time::ms(10);
  EXPECT_EQ(sim.run_guarded(guard), RunOutcome::kDrained);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), Time::ms(10));  // clock lands on the deadline
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(RunGuardedTest, DeadlineLeavesLaterEventsPending) {
  Simulator sim;
  int ran = 0;
  sim.schedule(Time::ms(3), [&] { ++ran; });
  sim.schedule(Time::ms(30), [&] { ++ran; });
  RunGuard guard;
  guard.deadline = Time::ms(10);
  EXPECT_EQ(sim.run_guarded(guard), RunOutcome::kDeadline);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), Time::ms(10));
  EXPECT_TRUE(sim.pending());
}

TEST(RunGuardedTest, EventBudgetStopsARunawayCascade) {
  Simulator sim;
  std::function<void()> cascade = [&] { sim.schedule(Time::us(1), cascade); };
  sim.schedule(Time::us(1), cascade);
  RunGuard guard;
  guard.max_events = 500;
  EXPECT_EQ(sim.run_guarded(guard), RunOutcome::kEventBudget);
  EXPECT_EQ(sim.events_executed(), 500u);
}

TEST(RunGuardedTest, LivelockDetectedWhenClockStopsAdvancing) {
  // Zero-delay self-rescheduling: sim time never moves past 1 ms.
  Simulator sim;
  std::function<void()> spin = [&] { sim.schedule(Time::zero(), spin); };
  sim.schedule(Time::ms(1), spin);
  RunGuard guard;
  guard.deadline = Time::ms(100);
  guard.max_events_per_instant = 1000;
  EXPECT_EQ(sim.run_guarded(guard), RunOutcome::kLivelock);
  EXPECT_EQ(sim.now(), Time::ms(1));  // wedged instant, not the deadline
  EXPECT_EQ(sim.events_executed(), 1000u);
  // The event that tripped the budget was not popped, so it still runs.
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(RunGuardedTest, BoundedFanoutAtOneInstantIsNotALivelock) {
  Simulator sim;
  int ran = 0;
  for (int i = 0; i < 50; ++i) sim.schedule(Time::ms(1), [&] { ++ran; });
  RunGuard guard;
  guard.deadline = Time::ms(2);
  guard.max_events_per_instant = 100;
  EXPECT_EQ(sim.run_guarded(guard), RunOutcome::kDrained);
  EXPECT_EQ(ran, 50);
}

TEST(RunGuardedTest, StopFromCallbackWins) {
  Simulator sim;
  sim.schedule(Time::ms(1), [&] { sim.stop(); });
  sim.schedule(Time::ms(2), [] { FAIL() << "ran past stop()"; });
  RunGuard guard;
  guard.deadline = Time::ms(10);
  EXPECT_EQ(sim.run_guarded(guard), RunOutcome::kStopped);
  EXPECT_EQ(sim.now(), Time::ms(1));  // stop() does not advance to deadline
}

TEST(RunGuardedTest, PastDeadlineThrows) {
  Simulator sim;
  sim.schedule(Time::ms(5), [] {});
  sim.run();
  RunGuard guard;
  guard.deadline = Time::ms(2);
  EXPECT_THROW((void)sim.run_guarded(guard), std::logic_error);
}

// ------------------------------------------------------ has_run borders

// Simulator::has_run at exact borders, one seq or one nanosecond wide
// (in the manner of a RED test whose thresholds sit one byte apart):
// a reserved key has run exactly when the event it stands for, filed,
// would have run by now.
TEST(HasRunBorderTest, InsideACallbackTheRunningKeyIsTheBorder) {
  Simulator sim;
  const Time t = Time::us(5);
  const Reservation before = sim.reserve(t);
  const Reservation running = sim.reserve(t);
  const Reservation after = sim.reserve(t);
  const Reservation earlier = sim.reserve(t - Time::ns(1));
  const Reservation later = sim.reserve(t + Time::ns(1));
  std::vector<bool> seen;
  sim.schedule(running, [&] {
    seen = {sim.has_run(before), sim.has_run(running), sim.has_run(after),
            sim.has_run(earlier), sim.has_run(later)};
  });
  sim.run();
  // The key just before the running one has run; the running key and
  // the one just after it have not, whatever their time.
  EXPECT_EQ(seen, (std::vector<bool>{true, false, false, true, false}));
}

TEST(HasRunBorderTest, AfterRunUntilEveryKeyUpToTheDeadlineHasRun) {
  Simulator sim;
  const Time t = Time::us(5);
  const Reservation at_deadline = sim.reserve(t);
  const Reservation past_deadline = sim.reserve(t + Time::ns(1));
  sim.schedule(Time::us(9), [] {});
  sim.run_until(t);
  EXPECT_TRUE(sim.has_run(at_deadline));
  EXPECT_FALSE(sim.has_run(past_deadline));
  // No event ran at all: the deadline alone moved the clock.
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(HasRunBorderTest, BudgetTripInTheMiddleOfAnInstant) {
  Simulator sim;
  const Time t = Time::us(5);
  std::vector<Reservation> k;  // k[0] < e1 < k[1] < e2 < k[2] < e3 < k[3]
  for (int i = 0; i < 3; ++i) {
    k.push_back(sim.reserve(t));
    sim.schedule_at(t, [] {});
  }
  k.push_back(sim.reserve(t));
  RunGuard guard;
  guard.max_events = 2;
  EXPECT_EQ(sim.run_guarded(guard), RunOutcome::kEventBudget);
  EXPECT_EQ(sim.now(), t);
  // The third event is still pending at t: keys before it have run,
  // the one after it has not.
  EXPECT_TRUE(sim.has_run(k[0]));
  EXPECT_TRUE(sim.has_run(k[1]));
  EXPECT_TRUE(sim.has_run(k[2]));
  EXPECT_FALSE(sim.has_run(k[3]));
  sim.run();
  EXPECT_TRUE(sim.has_run(k[3]));
}

TEST(HasRunBorderTest, StopInTheMiddleOfAnInstant) {
  Simulator sim;
  const Time t = Time::us(5);
  sim.schedule_at(t, [&] { sim.stop(); });
  const Reservation between = sim.reserve(t);
  sim.schedule_at(t, [] {});
  const Reservation after = sim.reserve(t);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_TRUE(sim.has_run(between));
  EXPECT_FALSE(sim.has_run(after));
}

}  // namespace
}  // namespace phantom::sim
