// Strict-priority service for guaranteed-class (CBR) cells, and the
// end-to-end delay measurement at destinations.
#include <gtest/gtest.h>

#include <vector>

#include "atm/output_port.h"
#include "exp/factories.h"
#include "exp/probes.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "topo/abr_network.h"

namespace phantom {
namespace {

using atm::Cell;
using atm::Link;
using atm::OutputPort;
using atm::QueueDiscipline;
using sim::Rate;
using sim::Simulator;
using sim::Time;

class Collector final : public atm::CellSink {
 public:
  void receive_cell(Cell cell) override { cells.push_back(cell); }
  std::vector<Cell> cells;
};

Cell cbr_cell(int vc) {
  Cell c = Cell::data(vc);
  c.high_priority = true;
  return c;
}

TEST(PriorityPortTest, HighPriorityOvertakesBacklog) {
  Simulator sim;
  Collector sink;
  OutputPort port{sim,
                  Rate::mbps(150),
                  100,
                  Link{sim, Time::zero(), sink},
                  nullptr,
                  QueueDiscipline::kStrictPriority};
  // Five best-effort cells queue up, then one CBR cell arrives.
  for (int i = 0; i < 5; ++i) port.send(Cell::data(1));
  port.send(cbr_cell(2));
  sim.run();
  ASSERT_EQ(sink.cells.size(), 6u);
  // The first cell was already on the wire; the CBR cell goes second.
  EXPECT_EQ(sink.cells[0].vc, 1);
  EXPECT_EQ(sink.cells[1].vc, 2);
}

TEST(PriorityPortTest, FifoModeIgnoresThePriorityBit) {
  Simulator sim;
  Collector sink;
  OutputPort port{sim, Rate::mbps(150), 100, Link{sim, Time::zero(), sink},
                  nullptr, QueueDiscipline::kFifo};
  for (int i = 0; i < 3; ++i) port.send(Cell::data(1));
  port.send(cbr_cell(2));
  sim.run();
  ASSERT_EQ(sink.cells.size(), 4u);
  EXPECT_EQ(sink.cells.back().vc, 2);  // stayed at the tail
}

TEST(PriorityPortTest, QueueLengthCountsBothClasses) {
  Simulator sim;
  Collector sink;
  OutputPort port{sim,
                  Rate::mbps(150),
                  4,
                  Link{sim, Time::zero(), sink},
                  nullptr,
                  QueueDiscipline::kStrictPriority};
  port.send(Cell::data(1));
  port.send(cbr_cell(2));
  port.send(Cell::data(1));
  port.send(cbr_cell(2));
  EXPECT_EQ(port.queue_length(), 4u);
  // Shared limit: the fifth cell is dropped regardless of class.
  port.send(cbr_cell(2));
  EXPECT_EQ(port.cells_dropped(), 1u);
}

TEST(PriorityIntegrationTest, CbrDelayShieldedFromAbrLoad) {
  // EPRCA keeps a ~100-cell standing queue (its congestion thresholds);
  // FIFO service makes the CBR stream ride that queue (~0.3 ms), while
  // strict priority keeps its delay at the propagation floor. The CBR
  // stream's VC is the last one created (after 4 ABR sessions).
  auto run = [](atm::QueueDiscipline discipline) {
    Simulator sim;
    topo::AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kEprca)};
    const auto sw = net.add_switch("sw");
    topo::TrunkOptions opts;
    opts.discipline = discipline;
    const auto dest = net.add_destination(sw, opts);
    for (int i = 0; i < 4; ++i) net.add_session(sw, {}, dest);
    net.add_cbr_session(sw, {}, dest, Rate::mbps(30));
    net.start_all(Time::zero(), Time::zero());
    sim.run_until(Time::ms(400));
    const int cbr_vc = 4;  // VCs are allocated in creation order
    return net.destination(dest).mean_delay_ms(cbr_vc);
  };
  const double fifo_delay = run(QueueDiscipline::kFifo);
  const double prio_delay = run(QueueDiscipline::kStrictPriority);
  EXPECT_LT(prio_delay, 0.5 * fifo_delay);
  EXPECT_LT(prio_delay, 0.05);  // essentially the propagation floor
}

TEST(DelayHistogramTest, RecordsEndToEndDelays) {
  Simulator sim;
  topo::AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  net.add_session(sw, {}, dest);
  stats::Histogram h{100.0, 1000};
  net.destination(dest).set_delay_histogram(&h);
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(100));
  EXPECT_GT(h.count(), 100u);
  // One uncongested session: delay = 2 us access + 2 us link + one or
  // two cell serializations; well under a millisecond at any quantile.
  EXPECT_LT(h.quantile(0.99), 1.0);
  EXPECT_GT(h.quantile(0.5), 0.0);
}

}  // namespace
}  // namespace phantom
