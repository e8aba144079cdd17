#include "sim/trace.h"

#include <gtest/gtest.h>

namespace phantom::sim {
namespace {

TEST(TraceTest, StartsEmpty) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TraceTest, RecordAppendsInOrder) {
  Trace t;
  t.record(Time::ms(1), 10.0);
  t.record(Time::ms(2), 20.0);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.samples()[0], (Sample{Time::ms(1), 10.0}));
  EXPECT_EQ(t.samples()[1], (Sample{Time::ms(2), 20.0}));
  EXPECT_EQ(t.back().value, 20.0);
}

TEST(TraceTest, LastOrFallsBackWhenEmpty) {
  Trace t;
  EXPECT_DOUBLE_EQ(t.last_or(-1.0), -1.0);
  t.record(Time::ms(1), 7.0);
  EXPECT_DOUBLE_EQ(t.last_or(-1.0), 7.0);
}

TEST(TraceTest, ClearResets) {
  Trace t;
  t.record(Time::ms(1), 1.0);
  t.clear();
  EXPECT_TRUE(t.empty());
}

}  // namespace
}  // namespace phantom::sim
