// A warmed-up ABR bottleneck allocates nothing: once queues, delay
// lines and event slots have reached their working size, carrying a
// cell costs no heap allocation, under every algorithm. Components keep
// no measurement history of their own, so nothing grows with run
// length unless a caller attached a series.
//
// The counting global operator new below replaces the allocator for the
// whole binary, which is why this test is a binary of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "exp/factories.h"
#include "exp/scenario.h"
#include "fault/invariant_monitor.h"
#include "sim/simulator.h"
#include "topo/abr_network.h"

namespace {

std::uint64_t g_allocations = 0;
bool g_counting = false;

void* counted_malloc(std::size_t n) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace phantom {
namespace {

using sim::Rate;
using sim::Time;

class SteadyStateAllocTest : public testing::TestWithParam<exp::Algorithm> {};

TEST_P(SteadyStateAllocTest, BottleneckAllocatesNothingAfterWarmUp) {
  sim::Simulator sim;
  topo::AbrNetwork net{sim, exp::make_factory(GetParam())};
  const auto sw = net.add_switch("sw");
  topo::TrunkOptions opts;
  opts.rate = Rate::mbps(150);
  const auto dest = net.add_destination(sw, opts);
  for (int i = 0; i < 5; ++i) net.add_session(sw, {}, dest);
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(200));
  const std::uint64_t cells_before = net.destination(dest).total_data_cells();

  g_allocations = 0;
  g_counting = true;
  sim.run_until(Time::sec(2));
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  // The window carried real traffic: 1.8 s at well over 100 Mb/s.
  EXPECT_GT(net.destination(dest).total_data_cells() - cells_before, 400000u);
}

// Sources on long access links: each keeps hundreds of cells in flight
// in its own ring (lazy pacing), and each backward port's line holds
// the RM cells on the way back. Both stop growing at their high-water
// marks. EPRCA and APRC are left out: with these delays their queues
// still reach new highs after a second, so their port lines grow.
class LongDelayAllocTest : public testing::TestWithParam<exp::Algorithm> {};

TEST_P(LongDelayAllocTest, AccessLinksAllocateNothingAfterWarmUp) {
  sim::Simulator sim;
  topo::AbrNetwork net{sim, exp::make_factory(GetParam())};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  for (int i = 1; i <= 5; ++i) {
    net.add_session(sw, {}, dest, {}, Time::ms(i));
  }
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::sec(1));
  const std::uint64_t cells_before = net.destination(dest).total_data_cells();

  g_allocations = 0;
  g_counting = true;
  sim.run_until(Time::sec(2));
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  EXPECT_GT(net.destination(dest).total_data_cells() - cells_before, 250000u);
}

// A destination fed only CBR cells: its link never carries an RM cell,
// so no arrival event ever hands its quiet cells over, and only the
// catch-up in each send() does. The line stays bounded all the same.
TEST_P(SteadyStateAllocTest, CbrOnlyDestinationAllocatesNothingAfterWarmUp) {
  sim::Simulator sim;
  topo::AbrNetwork net{sim, exp::make_factory(GetParam())};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  for (int i = 0; i < 3; ++i) {
    net.add_cbr_session(sw, {}, dest, Rate::mbps(40));
  }
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(200));
  const std::uint64_t cells_before = net.destination(dest).total_data_cells();

  g_allocations = 0;
  g_counting = true;
  sim.run_until(Time::sec(2));
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(net.destination(dest).rm_cells_turned(), 0u);
  // 1.8 s of 120 Mb/s, every cell without an arrival event.
  const auto& line = net.dest_port(dest).link().state()->line;
  EXPECT_GT(net.destination(dest).total_data_cells() - cells_before, 400000u);
  EXPECT_EQ(line.quiet_arrivals(), net.destination(dest).total_data_cells());
}

// The chaos harness's setting: an overload-armoured bottleneck (bounded
// cell memory, admission control) under an InvariantMonitor checking
// the whole network every millisecond. Neither admission nor a check
// allocates: the buffer manager's busy-port list stops growing with
// the queues, and the monitor walks the links in place.
TEST_P(SteadyStateAllocTest, ArmouredBottleneckUnderMonitorAllocatesNothing) {
  exp::Scenario spec;
  spec.algorithm = GetParam();
  spec.overload = true;
  sim::Simulator sim;
  exp::BuiltScenario built = spec.build(sim);
  fault::InvariantMonitor monitor{sim, built.net, Time::ms(1)};
  built.net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(200));
  const std::uint64_t checks_before = monitor.checks_run();
  const std::uint64_t admitted_before =
      built.net.node(0).buffer_manager()->cells_accepted();

  g_allocations = 0;
  g_counting = true;
  sim.run_until(Time::sec(2));
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(monitor.checks_run() - checks_before, 1800u);
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_GT(built.net.node(0).buffer_manager()->cells_accepted() -
                admitted_before,
            400000u);
}

std::string alg_name(const testing::TestParamInfo<exp::Algorithm>& info) {
  return exp::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SteadyStateAllocTest,
                         testing::Values(exp::Algorithm::kPhantom,
                                         exp::Algorithm::kEprca,
                                         exp::Algorithm::kAprc,
                                         exp::Algorithm::kCapc,
                                         exp::Algorithm::kErica),
                         alg_name);
INSTANTIATE_TEST_SUITE_P(SettledQueues, LongDelayAllocTest,
                         testing::Values(exp::Algorithm::kPhantom,
                                         exp::Algorithm::kCapc,
                                         exp::Algorithm::kErica),
                         alg_name);

}  // namespace
}  // namespace phantom
