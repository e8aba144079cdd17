// Failure injection and background traffic on the ABR substrate.
#include <gtest/gtest.h>

#include "atm/cbr_source.h"
#include "exp/factories.h"
#include "exp/probes.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "topo/abr_network.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;
using topo::AbrNetwork;
using topo::TrunkOptions;

TEST(CbrSourceTest, PacesAtConfiguredRate) {
  Simulator sim;
  struct Counter final : atm::CellSink {
    void receive_cell(atm::Cell) override { ++cells; }
    int cells = 0;
  } sink;
  atm::CbrSource cbr{sim, 1, Rate::mbps(42.4),
                     atm::Link{sim, Time::zero(), sink}};
  cbr.start(Time::zero());
  sim.run_until(Time::ms(100));
  // 42.4 Mb/s = 100k cells/s -> 10000 cells in 100 ms.
  EXPECT_NEAR(static_cast<double>(sink.cells), 10'000.0, 10.0);
  EXPECT_EQ(cbr.cells_sent(), static_cast<std::uint64_t>(sink.cells));
}

TEST(CbrSourceTest, StopHaltsTransmission) {
  Simulator sim;
  struct Counter final : atm::CellSink {
    void receive_cell(atm::Cell) override { ++cells; }
    int cells = 0;
  } sink;
  atm::CbrSource cbr{sim, 1, Rate::mbps(10), atm::Link{sim, Time::zero(), sink}};
  cbr.start(Time::zero());
  sim.run_until(Time::ms(10));
  const int at_10ms = sink.cells;
  cbr.stop();
  sim.run_until(Time::ms(20));
  EXPECT_EQ(sink.cells, at_10ms);
}

TEST(CbrSourceTest, RejectsNonPositiveRate) {
  Simulator sim;
  struct Null final : atm::CellSink {
    void receive_cell(atm::Cell) override {}
  } sink;
  EXPECT_THROW(
      (atm::CbrSource{sim, 1, Rate::zero(), atm::Link{sim, Time::zero(), sink}}),
      std::invalid_argument);
}

TEST(AbrWithCbrTest, PhantomYieldsToBackgroundTraffic) {
  // 50 Mb/s of CBR + 2 greedy ABR sessions: the ABR share is
  // (u*C - 50) / 3 = 30.8 Mb/s each (the phantom still takes a share of
  // what remains).
  Simulator sim;
  AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  net.add_session(sw, {}, dest);
  net.add_session(sw, {}, dest);
  net.add_cbr_session(sw, {}, dest, Rate::mbps(50));
  exp::GoodputProbe probe{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  probe.mark();
  sim.run_until(Time::ms(600));
  const auto rates = probe.rates_mbps();
  const double expect = (0.95 * 150 - 50) / 3;
  EXPECT_NEAR(rates[0], expect, 0.15 * expect);
  EXPECT_NEAR(rates[1], expect, 0.15 * expect);
  // The CBR stream itself is untouched (no drops at the port).
  EXPECT_EQ(net.dest_port(dest).cells_dropped(), 0u);
  // And the reference solver accounts for the background load.
  const auto ref = net.reference_rates(true, 0.95);
  EXPECT_NEAR(ref[0].mbits_per_sec(), expect, 1e-6);
}

TEST(AbrWithCbrTest, CbrDepartureReleasesBandwidth) {
  Simulator sim;
  AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  net.add_session(sw, {}, dest);
  const auto cbr = net.add_cbr_session(sw, {}, dest, Rate::mbps(100));
  net.start_all(Time::zero(), Time::zero());
  sim.schedule_at(Time::ms(300), [&] { net.cbr_source(cbr).stop(); });
  sim.run_until(Time::ms(600));
  exp::GoodputProbe probe{sim, net};
  probe.mark();
  sim.run_until(Time::ms(800));
  // Alone now: u*C/2.
  EXPECT_NEAR(probe.rates_mbps()[0], 0.95 * 150 / 2, 6.0);
}

TEST(LossyLinkTest, DropsApproximatelyTheConfiguredFraction) {
  Simulator sim{17};
  struct Counter final : atm::CellSink {
    void receive_cell(atm::Cell) override { ++cells; }
    int cells = 0;
  } sink;
  atm::Link link{sim, Time::zero(), sink, 0.1};
  for (int i = 0; i < 10'000; ++i) link.deliver(atm::Cell::data(1));
  sim.run();
  EXPECT_NEAR(static_cast<double>(sink.cells), 9'000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(link.cells_lost()), 1'000.0, 200.0);
}

TEST(LossyLinkTest, CopiesShareLossAccounting) {
  // Link is a value type passed around by copy (ports, sources and the
  // network builder each hold one); every copy must see the same fault
  // state and counters or losses vanish from per-copy bookkeeping.
  Simulator sim{17};
  struct Counter final : atm::CellSink {
    void receive_cell(atm::Cell) override { ++cells; }
    int cells = 0;
  } sink;
  atm::Link original{sim, Time::zero(), sink, 0.1};
  atm::Link copy = original;
  for (int i = 0; i < 5'000; ++i) original.deliver(atm::Cell::data(1));
  for (int i = 0; i < 5'000; ++i) copy.deliver(atm::Cell::data(1));
  sim.run();
  EXPECT_EQ(original.cells_lost(), copy.cells_lost());
  EXPECT_EQ(original.cells_delivered(), copy.cells_delivered());
  EXPECT_EQ(original.cells_lost() + original.cells_delivered(), 10'000u);
  EXPECT_GT(original.cells_lost(), 0u);
  // Fault state set through one copy acts on the other.
  copy.state()->down = true;
  const auto lost_before = original.cells_lost();
  original.deliver(atm::Cell::data(1));
  sim.run();
  EXPECT_EQ(original.cells_lost(), lost_before + 1);
}

TEST(LossyLinkTest, NetworkExposesCumulativeLinkLosses) {
  Simulator sim{7};
  AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  TrunkOptions lossy;
  lossy.loss = 0.05;
  const auto dest = net.add_destination(sw, lossy);
  net.add_session(sw, {}, dest);
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(200));
  EXPECT_GT(net.total_cells_lost(), 0u);
  // The probe agrees with the per-link counters, and the walk visits
  // every hop once: the switch's port links, then the access links of
  // the source and the destination.
  std::uint64_t sum = 0;
  std::size_t links = 0;
  net.for_each_link_state([&](const atm::LinkState& st) {
    sum += st.lost();
    ++links;
  });
  EXPECT_EQ(net.total_cells_lost(), sum);
  EXPECT_EQ(links, net.node(sw).num_ports() + 2);
  EXPECT_EQ(net.total_cells_lost(), net.dest_port(dest).link().cells_lost());
}

TEST(AbrResilienceTest, ControlLoopSurvivesRmCellLoss) {
  // 2% random cell loss on the bottleneck trunk (data AND RM cells).
  // The loop must keep converging near the fair share: lost BRMs only
  // delay rate updates, and TCR keeps beaten-down sources probing.
  Simulator sim;
  AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  TrunkOptions lossy;
  lossy.loss = 0.02;
  const auto dest = net.add_destination(sw, lossy);
  for (int i = 0; i < 3; ++i) net.add_session(sw, {}, dest);
  exp::GoodputProbe probe{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(400));
  probe.mark();
  sim.run_until(Time::ms(700));
  const auto rates = probe.rates_mbps();
  // Delivered goodput ~ (1 - loss) * u*C/4 per session, generous band.
  for (const double r : rates) EXPECT_NEAR(r, 35.6 * 0.98, 6.0);
  EXPECT_GT(stats::jain_index(rates), 0.98);
}

TEST(AbrResilienceTest, SevereLossDegradesButDoesNotDeadlock) {
  Simulator sim;
  AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  TrunkOptions lossy;
  lossy.loss = 0.3;
  const auto dest = net.add_destination(sw, lossy);
  net.add_session(sw, {}, dest);
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(500));
  // Still making progress end to end.
  EXPECT_GT(net.delivered_cells(0), 1'000u);
  EXPECT_GT(net.source(0).brm_cells_received(), 10u);
}

}  // namespace
}  // namespace phantom
