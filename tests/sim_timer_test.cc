// sim::Timer against the eager timer it replaced, which cancels the
// filed event and schedules a new one on every arm. Random scripts of
// arms to later and earlier deadlines, disarms, disarm-then-re-arm at
// one instant, owners re-arming from inside their own callback, and
// other events landing on the deadline instants must call every owner
// at the same instant and in the same place among that instant's
// events. The lazy timer may only run more events: its early wake-ups.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace phantom::sim {
namespace {

/// The reference: a cancel and a schedule per arm, a cancel per disarm.
class EagerTimer {
 public:
  EagerTimer(Simulator& sim, Timer::Callback on_fire)
      : sim_{&sim}, on_fire_{std::move(on_fire)} {}

  void arm(Time delay) {
    sim_->cancel(filed_);
    filed_ = sim_->schedule(delay, [this] {
      filed_ = {};
      on_fire_();
    });
  }
  void disarm() {
    sim_->cancel(filed_);
    filed_ = {};
  }
  [[nodiscard]] bool armed() const { return filed_.valid(); }
  [[nodiscard]] std::uint64_t wakeups() const { return 0; }

 private:
  Simulator* sim_;
  Timer::Callback on_fire_;
  EventId filed_;
};

/// One entry per owner call and per other event, in run order.
struct Entry {
  std::int64_t at_ns;
  char who;  // 'T': timer `id` called its owner; 'E': other event `id`
  int id;
  friend bool operator==(const Entry&, const Entry&) = default;
};

/// A script: a few timers and a tree of other events, every choice
/// drawn from one stream at each logged call. Two worlds that run the
/// same logged calls in the same order draw the same choices.
template <typename T>
class World {
 public:
  static constexpr int kTimers = 3;

  explicit World(std::uint64_t seed) : rng_{seed} {
    for (int k = 0; k < kTimers; ++k) {
      timers_.emplace_back(sim_, [this, k] { fired(k); });
    }
  }

  void run() {
    sim_.schedule(Time::zero(), [this] { other(0); });
    sim_.run();
  }

  [[nodiscard]] const std::vector<Entry>& log() const { return log_; }
  [[nodiscard]] std::uint64_t events() const { return sim_.events_executed(); }
  [[nodiscard]] std::uint64_t wakeups() const {
    std::uint64_t n = 0;
    for (const T& t : timers_) n += t.wakeups();
    return n;
  }

 private:
  /// Delays on a 10 ns grid from 0 to 100 ns, so deadlines and other
  /// events share instants, and re-arms move deadlines either way.
  Time delay() { return Time::ns(10 * rng_.uniform_int(0, 10)); }
  T& timer() {
    return timers_[static_cast<std::size_t>(rng_.uniform_int(0, kTimers - 1))];
  }

  void spawn(Time d) {
    if (spawned_ >= kEventBudget) return;
    const int id = ++spawned_;
    sim_.schedule(d, [this, id] { other(id); });
  }

  void other(int id) {
    log_.push_back({sim_.now().nanoseconds(), 'E', id});
    for (auto n = rng_.uniform_int(1, 3); n > 0; --n) {
      switch (rng_.uniform_int(0, 5)) {
        case 0:
        case 1:
          timer().arm(delay());
          break;
        case 2:
          timer().disarm();
          break;
        case 3: {  // disarm, then re-arm at the same instant
          T& t = timer();
          t.disarm();
          t.arm(delay());
          break;
        }
        case 4:
          spawn(delay());
          break;
        case 5: {  // another event on the very deadline, filed after it
          const Time d = delay();
          timer().arm(d);
          spawn(d);
          break;
        }
      }
    }
    // Keep the tree alive until the budget is spent.
    spawn(delay());
  }

  void fired(int k) {
    log_.push_back({sim_.now().nanoseconds(), 'T', k});
    T& t = timers_[static_cast<std::size_t>(k)];
    EXPECT_FALSE(t.armed()) << "armed inside its own callback";
    // Re-arm from inside the callback; now and then twice, the second
    // arm moving the deadline again before anything runs.
    if (spawned_ < kEventBudget && rng_.bernoulli(0.5)) {
      t.arm(delay());
      if (rng_.bernoulli(0.3)) t.arm(delay());
    }
  }

  static constexpr int kEventBudget = 400;

  Simulator sim_;
  Rng rng_;
  std::deque<T> timers_;
  std::vector<Entry> log_;
  int spawned_ = 0;
};

TEST(TimerTest, RandomScriptsCallOwnersWhereTheEagerTimerDid) {
  std::uint64_t wakeups = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World<EagerTimer> eager{seed};
    World<Timer> lazy{seed};
    eager.run();
    lazy.run();
    ASSERT_EQ(lazy.log(), eager.log());
    // The lazy timer runs every event the eager one ran, plus its
    // early wake-ups.
    EXPECT_EQ(lazy.events(), eager.events() + lazy.wakeups());
    wakeups += lazy.wakeups();
  }
  EXPECT_GT(wakeups, 0u);  // the scripts do reach the lazy path
}

/// Re-arms `timer` to 1 ms ahead once a microsecond for `arms` us,
/// among 8 other pending events. Returns the most heap nodes the kernel
/// held after any arm, and leaves the clock at the last arm.
template <typename T>
std::size_t most_heap_nodes(Simulator& sim, T& timer, int arms) {
  for (int i = 0; i < 8; ++i) sim.schedule(Time::sec(1), [] {});
  std::size_t most = 0;
  for (int i = 0; i < arms; ++i) {
    sim.run_until(Time::us(i));
    timer.arm(Time::ms(1));
    most = std::max(most, sim.heap_nodes());
  }
  return most;
}

TEST(TimerTest, ReArmsLeaveOneEventFiled) {
  // Every re-arm moves the deadline later. The lazy timer keeps its
  // first event and only draws keys: the heap holds the live events
  // and nothing else, so no tombstone is left for compact() to sweep.
  constexpr int kArms = 1000;
  Simulator sim;
  int fired = 0;
  Timer timer{sim, [&fired] { ++fired; }};
  EXPECT_EQ(most_heap_nodes(sim, timer, kArms), 8u + 1u);
  EXPECT_EQ(sim.pending_count(), 8u + 1u);
  sim.run_until(Time::ms(2));
  EXPECT_EQ(fired, 1);
  // One wake-up: at 1 ms, the first deadline, the timer finds the last
  // one, 1.999 ms, and files it.
  EXPECT_EQ(timer.wakeups(), 1u);
  EXPECT_EQ(sim.events_executed(), 2u);

  // The eager timer leaves a tombstone per arm until they outnumber the
  // live events and the kernel compacts.
  Simulator eager_sim;
  EagerTimer eager{eager_sim, [&fired] { ++fired; }};
  EXPECT_GT(most_heap_nodes(eager_sim, eager, kArms), 8u + 1u);
  EXPECT_EQ(eager_sim.pending_count(), 8u + 1u);
}

TEST(TimerTest, AnEarlierDeadlineCancelsAndRefiles) {
  Simulator sim;
  std::vector<Time> calls;
  Timer timer{sim, [&] { calls.push_back(sim.now()); }};
  timer.arm(Time::ms(1000));  // the RTO before the first RTT sample
  timer.arm(Time::ms(200));   // the sample cuts it
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(calls, std::vector<Time>{Time::ms(200)});
  EXPECT_EQ(timer.wakeups(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(TimerTest, DisarmedTimerWakesForNothing) {
  Simulator sim;
  int fired = 0;
  Timer timer{sim, [&fired] { ++fired; }};
  timer.arm(Time::ms(5));
  timer.disarm();
  EXPECT_FALSE(timer.armed());
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(timer.wakeups(), 1u);
  EXPECT_EQ(sim.now(), Time::ms(5));
}

TEST(TimerTest, RejectsANullCallbackAndANegativeDelay) {
  Simulator sim;
  EXPECT_THROW((Timer{sim, nullptr}), std::invalid_argument);
  int fired = 0;
  Timer timer{sim, [&fired] { ++fired; }};
  EXPECT_THROW(timer.arm(Time::ns(-1)), std::logic_error);
  EXPECT_FALSE(timer.armed());
}

}  // namespace
}  // namespace phantom::sim
