#include "sim/inline_function.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace phantom::sim {
namespace {

using Fn = InlineFunction<32>;

TEST(InlineFunctionTest, DefaultConstructedIsNull) {
  Fn f;
  EXPECT_FALSE(f);
  EXPECT_TRUE(f == nullptr);
  Fn g{nullptr};
  EXPECT_FALSE(g);
}

TEST(InlineFunctionTest, InvokesStoredLambda) {
  int hits = 0;
  Fn f{[&hits] { ++hits; }};
  ASSERT_TRUE(f);
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunctionTest, NullFunctionPointerStaysNull) {
  void (*fp)() = nullptr;
  Fn f{fp};
  EXPECT_FALSE(f);
}

TEST(InlineFunctionTest, FitsInlineTraitMatchesCaptureSize) {
  auto small = [] {};
  std::array<char, 64> big_payload{};
  auto big = [big_payload] { (void)big_payload; };
  static_assert(Fn::fits_inline<decltype(small)>);
  static_assert(!Fn::fits_inline<decltype(big)>);
  // A throwing-move capture may not live inline even when it fits:
  // the event heap relocates entries under a noexcept move.
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  static_assert(!Fn::fits_inline<ThrowingMove>);
}

TEST(InlineFunctionTest, MoveOnlyCaptureWorksAndTransfersOwnership) {
  int result = 0;
  auto p = std::make_unique<int>(41);
  Fn f{[p = std::move(p), &result] { result = *p + 1; }};
  // Move the whole function object; the unique_ptr travels with it.
  Fn g{std::move(f)};
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): post-move null is API
  ASSERT_TRUE(g);
  g();
  EXPECT_EQ(result, 42);
}

TEST(InlineFunctionTest, MoveAssignReleasesPreviousTarget) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  Fn f{[token] { (void)token; }};
  token.reset();
  EXPECT_FALSE(watch.expired());
  f = Fn{[] {}};  // overwriting must destroy the old capture
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunctionTest, ResetDestroysCaptureImmediately) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  Fn f{[token] { (void)token; }};
  token.reset();
  EXPECT_FALSE(watch.expired());
  f.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(f);
}

TEST(InlineFunctionTest, OversizedCaptureFallsBackToHeapAndCounts) {
  Fn::reset_heap_fallbacks();
  int seen = 0;
  std::array<char, 64> payload{};
  payload[0] = 7;
  Fn f{[payload, &seen] { seen = payload[0]; }};
  EXPECT_EQ(Fn::heap_fallbacks(), 1u);
  // Heap-stored callables still move (pointer steal) and invoke.
  Fn g{std::move(f)};
  ASSERT_TRUE(g);
  g();
  EXPECT_EQ(seen, 7);
  Fn::reset_heap_fallbacks();
  EXPECT_EQ(Fn::heap_fallbacks(), 0u);
}

TEST(InlineFunctionTest, HeapFallbackCaptureIsDestroyed) {
  Fn::reset_heap_fallbacks();
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  std::array<char, 64> pad{};
  {
    Fn f{[token, pad] { (void)pad; }};
    token.reset();
    EXPECT_EQ(Fn::heap_fallbacks(), 1u);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
  Fn::reset_heap_fallbacks();
}

TEST(InlineFunctionTest, MemberCallbackBindsAndInvokes) {
  struct Counter {
    int hits = 0;
    void bump() { ++hits; }
  } c;
  auto cb = bind_member<&Counter::bump>(&c);
  static_assert(Fn::fits_inline<decltype(cb)>);
  Fn f{cb};
  f();
  f();
  EXPECT_EQ(c.hits, 2);
}

// A closure of pointers and integers has no manager: moving it copies
// its bytes, and the copy must still carry every capture.
TEST(InlineFunctionTest, TrivialClosureMovesByItsBytes) {
  int hits = 0;
  const int step = 3;
  Fn f{[&hits, step] { hits += step; }};
  Fn g{std::move(f)};
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): post-move null is API
  Fn h;
  h = std::move(g);
  h();
  EXPECT_EQ(hits, 3);
}

TEST(InlineFunctionTest, EmplaceReplacesTheTargetInPlace) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  Fn f{[token] { (void)token; }};
  token.reset();
  int hits = 0;
  f.emplace([&hits] { ++hits; });
  EXPECT_TRUE(watch.expired());  // the old capture is gone
  f();
  EXPECT_EQ(hits, 1);
  f.emplace(nullptr);
  EXPECT_FALSE(f);
  void (*null_fp)() = nullptr;
  f.emplace(null_fp);
  EXPECT_FALSE(f);
  f.emplace(Fn{[&hits] { hits += 10; }});
  f();
  EXPECT_EQ(hits, 11);
}

// If building the new callable throws, the old one stays, whether the
// new one would have been stored inline or on the heap.
TEST(InlineFunctionTest, EmplaceThatThrowsKeepsTheOldTarget) {
  struct ThrowsOnCopy {
    std::array<char, 8> pad{};
    ThrowsOnCopy() = default;
    ThrowsOnCopy(const ThrowsOnCopy&) { throw std::runtime_error{"copy"}; }
    ThrowsOnCopy(ThrowsOnCopy&&) noexcept = default;
    void operator()() const {}
  };
  struct BigThrowsOnCopy {
    std::array<char, 64> pad{};
    BigThrowsOnCopy() = default;
    BigThrowsOnCopy(const BigThrowsOnCopy&) {
      throw std::runtime_error{"copy"};
    }
    BigThrowsOnCopy(BigThrowsOnCopy&&) noexcept = default;
    void operator()() const {}
  };
  static_assert(Fn::fits_inline<ThrowsOnCopy>);
  static_assert(!Fn::fits_inline<BigThrowsOnCopy>);
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  int hits = 0;
  Fn f{[token, &hits] { ++hits; }};
  token.reset();
  const ThrowsOnCopy small;
  EXPECT_THROW(f.emplace(small), std::runtime_error);
  const BigThrowsOnCopy big;
  EXPECT_THROW(f.emplace(big), std::runtime_error);
  EXPECT_FALSE(watch.expired());
  ASSERT_TRUE(f);
  f();
  EXPECT_EQ(hits, 1);
}

// The contract the queue relies on: an event may cancel or reschedule
// *itself*, because the queue runs each callback in a slot that stays
// put and is freed only after the call returns.
TEST(InlineFunctionTest, EventMayCancelItselfDuringInvocation) {
  Simulator sim;
  EventId self;
  int fired = 0;
  self = sim.schedule(Time::ms(1), [&] {
    ++fired;
    sim.cancel(self);  // cancelling an already-popped event is a no-op
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(InlineFunctionTest, EventMayRescheduleItselfDuringInvocation) {
  Simulator sim;
  int fired = 0;
  std::function<void()> hop = [&] {
    if (++fired < 5) sim.schedule(Time::ms(1), [&] { hop(); });
  };
  sim.schedule(Time::ms(1), [&] { hop(); });
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), Time::ms(5));
}

}  // namespace
}  // namespace phantom::sim
