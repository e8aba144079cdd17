// Fault-schedule generation: grammar round-trips, positional parse
// errors, determinism, and validity of generated plans.
#include <gtest/gtest.h>

#include <string>

#include "chaos/generator.h"
#include "fault/fault_injector.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace phantom {
namespace {

using sim::Time;

exp::Scenario spec_of(exp::Scenario::Kind kind) {
  exp::Scenario spec;
  spec.kind = kind;
  spec.sessions = 4;
  return spec;
}

TEST(GeneratorTest, RoundTripPropertyOverGeneratedPlans) {
  // The core property the shrinker and CLI replay depend on: every
  // generated plan survives to_spec -> parse exactly.
  for (const auto kind : {exp::Scenario::Kind::kBottleneck,
                          exp::Scenario::Kind::kParking}) {
    const auto spec = spec_of(kind);
    sim::Rng rng{2026};
    for (int i = 0; i < 30; ++i) {
      const auto plan = chaos::generate_plan(rng, spec);
      const std::string text = plan.to_spec();
      EXPECT_EQ(fault::FaultPlan::parse(text), plan) << text;
    }
  }
}

TEST(GeneratorTest, GeneratedPlansApplyCleanly) {
  // Every target index the generator picks must resolve against the
  // actually-built topology.
  for (const auto kind : {exp::Scenario::Kind::kBottleneck,
                          exp::Scenario::Kind::kParking}) {
    const auto spec = spec_of(kind);
    sim::Rng rng{7};
    for (int i = 0; i < 20; ++i) {
      const auto plan = chaos::generate_plan(rng, spec);
      sim::Simulator sim{1};
      topo::AbrNetwork net{sim, spec.factory()};
      exp::build_topology(spec, net);
      fault::FaultInjector injector{sim, net};
      EXPECT_NO_THROW(injector.apply(plan)) << plan.to_spec();
    }
  }
}

TEST(GeneratorTest, SameSeedSamePlan) {
  const auto spec = spec_of(exp::Scenario::Kind::kBottleneck);
  sim::Rng a{42};
  sim::Rng b{42};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(chaos::generate_plan(a, spec), chaos::generate_plan(b, spec));
  }
}

TEST(GeneratorTest, EveryLeaveHasALaterJoinOfTheSameSession) {
  // The differential oracle compares end states, so generated churn
  // must always restore the nominal session set.
  const auto spec = spec_of(exp::Scenario::Kind::kBottleneck);
  sim::Rng rng{11};
  for (int i = 0; i < 40; ++i) {
    const auto plan = chaos::generate_plan(rng, spec);
    for (std::size_t e = 0; e < plan.events.size(); ++e) {
      if (plan.events[e].kind != fault::FaultEvent::Kind::kLeave) continue;
      bool rejoined = false;
      for (std::size_t j = e + 1; j < plan.events.size(); ++j) {
        if (plan.events[j].kind == fault::FaultEvent::Kind::kJoin &&
            plan.events[j].target.index == plan.events[e].target.index &&
            plan.events[j].at > plan.events[e].at) {
          rejoined = true;
        }
      }
      EXPECT_TRUE(rejoined) << plan.to_spec();
    }
  }
}

TEST(GeneratorTest, EventsRespectTheRecoveryBudget) {
  const auto spec = spec_of(exp::Scenario::Kind::kBottleneck);
  chaos::GenOptions opt;
  sim::Rng rng{3};
  for (int i = 0; i < 40; ++i) {
    const auto plan = chaos::generate_plan(rng, spec, opt);
    EXPECT_LE(plan.last_recovery_time(), spec.horizon - opt.recovery_budget)
        << plan.to_spec();
    EXPECT_GE(plan.first_fault_time(), spec.horizon / 3) << plan.to_spec();
  }
}

TEST(GeneratorTest, TooShortHorizonThrows) {
  auto spec = spec_of(exp::Scenario::Kind::kBottleneck);
  spec.horizon = Time::ms(100);  // < recovery budget alone
  sim::Rng rng{1};
  EXPECT_THROW((void)chaos::generate_plan(rng, spec), std::invalid_argument);
}

TEST(FaultPlanParseErrorTest, NamesTokenEventIndexAndPosition) {
  try {
    (void)fault::FaultPlan::parse("outage:trunk0:10:5;outage:trunk0:x:50");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'x'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("event 2"), std::string::npos) << msg;
    // The second event starts at character 19.
    EXPECT_NE(msg.find("at character 19"), std::string::npos) << msg;
    EXPECT_NE(msg.find("outage:trunk0:x:50"), std::string::npos) << msg;
  }
}

TEST(FaultPlanParseErrorTest, FirstEventPositionIsZero) {
  try {
    (void)fault::FaultPlan::parse("meteor:trunk0:1:2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("event 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("at character 0"), std::string::npos) << msg;
  }
}

TEST(FaultPlanSpecTest, HandRolledPlanRoundTripsThroughText) {
  fault::FaultPlan plan;
  plan.outage(fault::trunk(0), Time::ms(250), Time::ms(50))
      .flap(fault::dest(1), Time::ms(100), 3, Time::ms(5), Time::ms(10))
      .burst(fault::trunk(0), Time::ms(300), Time::ms(40), 0.1, 0.3, 0.5)
      .rm_fault(fault::dest(0), Time::ms(350), Time::ms(20), 0.25, 0.5)
      .restart(fault::trunk(0), Time::ms(450))
      .leave(1, Time::ms(500))
      .join(1, Time::ms(550));
  EXPECT_EQ(fault::FaultPlan::parse(plan.to_spec()), plan) << plan.to_spec();
}

TEST(FaultPlanSpecTest, SubMillisecondTimesSerializeExactly) {
  fault::FaultPlan plan;
  plan.outage(fault::trunk(0), Time::us(1500), Time::ns(250'000));
  EXPECT_EQ(plan.to_spec(), "outage:trunk0:1.5:0.25");
  EXPECT_EQ(fault::FaultPlan::parse(plan.to_spec()), plan);
}

TEST(FaultPlanSpecTest, CustomEventsHaveNoTextualForm) {
  fault::FaultPlan plan;
  plan.custom(Time::ms(10), [] {});
  EXPECT_THROW((void)plan.to_spec(), std::logic_error);
}

}  // namespace
}  // namespace phantom
