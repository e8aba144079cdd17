// Differential fuzz: the production EventQueue (flat 4-ary heap,
// generation-checked cancellation, tombstone compaction, reservations,
// vacant-root refill, callbacks run in place) against an
// obviously-correct reference model (stable-ordered map keyed by
// (time, seq)), driven by the same random operation stream. Any
// divergence in pop order, pop timestamps, or cancel liveness is a
// kernel bug — this is the test that guards the simulator's
// determinism contract across rewrites.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace phantom::sim {
namespace {

/// Reference model: ordered map of (time, serial) -> payload. std::map
/// iteration order IS the specified pop order; cancellation is
/// erase-by-handle. A reservation is just a serial drawn now and an
/// insert later. No heap, no tombstones, no vacant root, nothing clever.
class ReferenceQueue {
 public:
  using Key = std::pair<Time, std::uint64_t>;

  Key reserve(Time at) { return Key{at, next_serial_++}; }
  void file(const Key& k, int payload) { events_.emplace(k, payload); }
  Key schedule(Time at, int payload) {
    const Key k = reserve(at);
    file(k, payload);
    return k;
  }
  bool cancel(const Key& k) { return events_.erase(k) > 0; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  std::pair<Key, int> pop() {
    auto it = events_.begin();
    std::pair<Key, int> out{it->first, it->second};
    events_.erase(it);
    return out;
  }

 private:
  std::map<Key, int> events_;
  std::uint64_t next_serial_ = 0;
};

/// Drives the real queue and the reference with one random operation
/// stream: immediate schedules, reservations filed some operations
/// later (or after the clock has passed them, which must throw),
/// cancels of possibly-stale handles, and pops whose callbacks
/// themselves schedule, file and cancel — the path on which a pop's
/// vacant heap root is filled by the callback's first schedule.
/// Percent thresholds of one random operation: a roll below `schedule`
/// schedules, below `reserve` reserves, below `file` files a pending
/// reservation, below `cancel` cancels, and anything else pops.
struct OpMix {
  int schedule;
  int reserve;
  int file;
  int cancel;
};

class Differential {
 public:
  explicit Differential(std::uint32_t seed, OpMix mix = {35, 50, 65, 80})
      : rng_{seed}, mix_{mix} {}

  /// Cancels that found a live event, the ones among them that made the
  /// queue compact its heap, and those compactions that ran inside a
  /// callback before it scheduled anything (the heap root still vacant).
  struct CancelStats {
    int live = 0;
    int compactions = 0;
    int compactions_at_vacant_root = 0;
  };
  [[nodiscard]] const CancelStats& cancel_stats() const { return stats_; }

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      step(/*in_callback=*/false);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(real_.size(), ref_.size());
    }
    while (!real_.empty()) {
      pop();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(ref_.empty());
    // Reservations left unfiled are simply dropped: the queue holds no
    // state for a key until it is filed.
  }

 private:
  struct LivePair {
    EventId real_id;
    ReferenceQueue::Key ref_key;
  };
  struct Pending {
    Reservation real_key;
    ReferenceQueue::Key ref_key;
  };

  // One random operation. Callbacks run a shorter menu (no pops: the
  // simulator never pops from inside an event).
  void step(bool in_callback) {
    const int roll = static_cast<int>(rng_() % 100);
    if (roll < mix_.schedule || (!in_callback && real_.empty())) {
      schedule_now();
    } else if (roll < mix_.reserve) {
      reserve();
    } else if (roll < mix_.file) {
      file_pending();
    } else if (roll < mix_.cancel) {
      cancel();
    } else if (!in_callback) {
      pop();
    }
  }

  // The tight delay range (0..49 ns) makes same-timestamp collisions —
  // the FIFO tie-break path — routine, not rare.
  Time draw_time() {
    return floor_ + Time::ns(static_cast<std::int64_t>(rng_() % 50));
  }

  EventQueue::Callback callback_for(int payload) {
    return [this, payload] { fired(payload); };
  }

  void schedule_now() {
    const Time at = draw_time();
    const int payload = next_payload_++;
    const EventId id = real_.schedule(at, callback_for(payload));
    live_.push_back(LivePair{id, ref_.schedule(at, payload)});
    root_vacant_ = false;
  }

  void reserve() {
    const Time at = draw_time();
    pending_.push_back(Pending{real_.reserve(at), ref_.reserve(at)});
  }

  // Files a random pending reservation. One the clock has passed must
  // be refused, and leaves both queues untouched.
  void file_pending() {
    if (pending_.empty()) return;
    const std::size_t i = rng_() % pending_.size();
    const Pending p = pending_[i];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    const int payload = next_payload_++;
    if (last_popped_ && p.ref_key <= *last_popped_) {
      EXPECT_THROW(real_.schedule(p.real_key, callback_for(payload)),
                   std::logic_error)
          << "filing a passed reservation must throw";
      return;
    }
    const EventId id = real_.schedule(p.real_key, callback_for(payload));
    ref_.file(p.ref_key, payload);
    live_.push_back(LivePair{id, p.ref_key});
    root_vacant_ = false;
  }

  // Cancels a random (possibly stale) handle; both sides must agree on
  // whether it still referred to a live event. A live cancel leaves at
  // most as many tombstones as live events: past that, the queue
  // compacts, which shows as a drop in its heap node count.
  void cancel() {
    if (live_.empty()) return;
    const std::size_t i = rng_() % live_.size();
    const bool ref_was_live = ref_.cancel(live_[i].ref_key);
    const std::size_t before = real_.size();
    const std::size_t nodes_before = real_.heap_nodes();
    real_.cancel(live_[i].real_id);
    const bool real_was_live = real_.size() != before;
    ASSERT_EQ(real_was_live, ref_was_live) << "cancel liveness diverged";
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    if (!real_was_live) return;
    ++stats_.live;
    ASSERT_LE(real_.heap_nodes(), 2 * real_.size())
        << "tombstones outnumber live events after a cancel";
    if (real_.heap_nodes() < nodes_before) {
      ++stats_.compactions;
      if (root_vacant_) ++stats_.compactions_at_vacant_root;
      root_vacant_ = false;  // compaction drops the hole
    }
  }

  // Runs the next event. The reference says which one it must be, so the
  // clock floor is set before the callback (which may draw times) runs.
  void pop() {
    const auto expected = ref_.pop();
    floor_ = expected.first.first;
    last_popped_ = expected.first;
    fired_payload_ = -1;
    Time clock = Time::zero();
    root_vacant_ = true;  // until the callback's first schedule or cancel
    ASSERT_TRUE(real_.run_next(Time::max(), clock));
    root_vacant_ = false;
    EXPECT_EQ(clock, expected.first.first) << "pop timestamp diverged";
    EXPECT_EQ(fired_payload_, expected.second) << "pop order diverged";
  }

  void fired(int payload) {
    fired_payload_ = payload;
    // A third of the callbacks issue up to three operations of their
    // own before returning.
    if (rng_() % 3 != 0) return;
    const int n = 1 + static_cast<int>(rng_() % 3);
    for (int k = 0; k < n; ++k) step(/*in_callback=*/true);
  }

  std::mt19937 rng_;
  OpMix mix_;
  CancelStats stats_;
  // True inside a callback until it files an event or compacts the
  // heap: the queue's heap root is then still the hole run_next() left.
  bool root_vacant_ = false;
  EventQueue real_;
  ReferenceQueue ref_;
  std::vector<LivePair> live_;  // handles issued so far (some stale)
  std::vector<Pending> pending_;  // reserved, not yet filed
  Time floor_ = Time::zero();
  std::optional<ReferenceQueue::Key> last_popped_;
  int next_payload_ = 0;
  int fired_payload_ = -1;
};

TEST(EventQueueFuzzTest, MatchesReferenceModelAcrossSeeds) {
  for (std::uint32_t seed : {1u, 2u, 7u, 42u, 1996u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential{seed}.run(4000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Cancels as frequent as schedules, and rare pops, so tombstones pile
// up and compaction fires over and over, from callbacks too — some of
// them before the callback has filled the heap's vacant root.
TEST(EventQueueFuzzTest, CancelHeavyPhaseCompactsAndMatchesReference) {
  for (std::uint32_t seed : {3u, 11u, 101u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential fuzz{seed, OpMix{30, 35, 40, 90}};
    fuzz.run(20000);
    if (::testing::Test::HasFatalFailure()) return;
    const auto& stats = fuzz.cancel_stats();
    EXPECT_GT(stats.compactions, 100) << "of " << stats.live << " cancels";
    EXPECT_GT(stats.compactions_at_vacant_root, 0);
  }
}

}  // namespace
}  // namespace phantom::sim
