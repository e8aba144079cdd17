#include "atm/output_port.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "atm/link.h"
#include "sim/simulator.h"

namespace phantom::atm {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

/// Collects delivered cells with their arrival times.
class Collector final : public CellSink {
 public:
  void receive_cell(Cell cell) override { cells.push_back(cell); }
  std::vector<Cell> cells;
};

/// Controller that records every hook invocation.
class SpyController final : public PortController {
 public:
  void on_cell_accepted(const Cell&, std::size_t q) override {
    accepted.push_back(q);
  }
  void on_cell_dropped(const Cell&) override { ++dropped; }
  void on_cell_transmitted(const Cell&) override { ++transmitted; }
  void on_forward_rm(Cell&, std::size_t) override { ++frm; }
  void on_backward_rm(Cell&, std::size_t) override { ++brm; }
  [[nodiscard]] bool mark_efci(std::size_t q) const override {
    return q >= efci_threshold;
  }
  [[nodiscard]] Rate fair_share() const override { return Rate::zero(); }
  [[nodiscard]] std::string name() const override { return "spy"; }

  std::vector<std::size_t> accepted;
  int dropped = 0, transmitted = 0, frm = 0, brm = 0;
  std::size_t efci_threshold = 1'000'000;
};

struct PortFixture {
  Simulator sim;
  Collector sink;
  SpyController* spy = nullptr;  // owned by port

  OutputPort make_port(Rate rate = Rate::mbps(150), std::size_t limit = 10,
                       Time delay = Time::zero()) {
    auto ctl = std::make_unique<SpyController>();
    spy = ctl.get();
    return OutputPort{sim, rate, limit, Link{sim, delay, sink}, std::move(ctl)};
  }
};

TEST(OutputPortTest, TransmitsAtLinkRate) {
  PortFixture f;
  auto port = f.make_port(Rate::mbps(150));
  port.send(Cell::data(1));
  port.send(Cell::data(1));
  f.sim.run();
  ASSERT_EQ(f.sink.cells.size(), 2u);
  // Two cells back to back: 2 * 424 / 150e6 s = 5.6533 us.
  EXPECT_NEAR(f.sim.now().microseconds(), 5.6533, 1e-3);
  EXPECT_EQ(port.cells_transmitted(), 2u);
}

TEST(OutputPortTest, PropagationDelayAddsToDelivery) {
  PortFixture f;
  auto port = f.make_port(Rate::mbps(150), 10, Time::ms(1));
  port.send(Cell::data(1));
  f.sim.run();
  // 2.827us serialization + 1ms propagation.
  EXPECT_NEAR(f.sim.now().microseconds(), 1002.827, 0.01);
  EXPECT_EQ(f.sink.cells.size(), 1u);
}

TEST(OutputPortTest, DropsWhenQueueFull) {
  PortFixture f;
  auto port = f.make_port(Rate::mbps(150), 3);
  for (int i = 0; i < 5; ++i) port.send(Cell::data(1));
  // First cell starts transmitting immediately but stays in the queue
  // until completion, so the 4th and 5th arrivals overflow.
  EXPECT_EQ(port.cells_dropped(), 2u);
  EXPECT_EQ(f.spy->dropped, 2);
  f.sim.run();
  EXPECT_EQ(f.sink.cells.size(), 3u);
}

TEST(OutputPortTest, QueueLengthAndMaxTracked) {
  PortFixture f;
  auto port = f.make_port(Rate::mbps(150), 10);
  for (int i = 0; i < 4; ++i) port.send(Cell::data(1));
  EXPECT_EQ(port.queue_length(), 4u);
  EXPECT_EQ(port.max_queue_length(), 4u);
  f.sim.run();
  EXPECT_EQ(port.queue_length(), 0u);
  EXPECT_EQ(port.max_queue_length(), 4u);
}

TEST(OutputPortTest, ControllerSeesAcceptAndTransmit) {
  PortFixture f;
  auto port = f.make_port();
  port.send(Cell::data(1));
  port.send(Cell::data(1));
  f.sim.run();
  EXPECT_EQ(f.spy->accepted, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(f.spy->transmitted, 2);
}

TEST(OutputPortTest, EfciMarkedWhenControllerSaysSo) {
  PortFixture f;
  auto port = f.make_port();
  f.spy->efci_threshold = 2;  // mark when >= 2 cells already queued
  for (int i = 0; i < 4; ++i) port.send(Cell::data(1));
  f.sim.run();
  ASSERT_EQ(f.sink.cells.size(), 4u);
  EXPECT_FALSE(f.sink.cells[0].efci);
  EXPECT_FALSE(f.sink.cells[1].efci);
  EXPECT_TRUE(f.sink.cells[2].efci);
  EXPECT_TRUE(f.sink.cells[3].efci);
}

TEST(OutputPortTest, RmCellsAreNeverEfciMarked) {
  PortFixture f;
  auto port = f.make_port();
  f.spy->efci_threshold = 0;  // mark everything markable
  port.send(Cell::forward_rm(1, Rate::mbps(1), Rate::mbps(150)));
  f.sim.run();
  ASSERT_EQ(f.sink.cells.size(), 1u);
  EXPECT_FALSE(f.sink.cells[0].efci);
}

TEST(OutputPortTest, NullControllerByDefault) {
  Simulator sim;
  Collector sink;
  OutputPort port{sim, Rate::mbps(150), 4, Link{sim, Time::zero(), sink}, nullptr};
  EXPECT_EQ(port.controller().name(), "null");
  port.send(Cell::data(1));
  sim.run();
  EXPECT_EQ(sink.cells.size(), 1u);
}

TEST(OutputPortTest, WorkConservingAcrossIdlePeriods) {
  PortFixture f;
  auto port = f.make_port(Rate::mbps(150));
  port.send(Cell::data(1));
  f.sim.run();
  const Time first_done = f.sim.now();
  f.sim.schedule(Time::ms(1), [&] { port.send(Cell::data(1)); });
  f.sim.run();
  // Second cell starts fresh: done 1ms + one cell time after first batch.
  EXPECT_NEAR((f.sim.now() - first_done).microseconds(), 1000.0 + 2.8267, 0.01);
}

// The port's cell time is the grid every departure sits on, so a rate
// without a representable one is refused in every build type: not
// finite and positive, a cell time under 1 ns, or one beyond what
// sim::Time holds.
TEST(OutputPortTest, RejectsRatesWithoutARepresentableCellTime) {
  Simulator sim;
  Collector sink;
  auto make = [&](double bps) {
    OutputPort port{sim, Rate::bps(bps), 4, Link{sim, Time::zero(), sink},
                    nullptr};
  };
  for (const double bps : {0.0, -150e6, std::nan(""), HUGE_VAL, -HUGE_VAL,
                           1e-300, 1e12}) {
    EXPECT_THROW(make(bps), std::invalid_argument) << bps << " b/s";
  }
  EXPECT_NO_THROW(make(150e6));
  EXPECT_NO_THROW(make(424e9));  // a 1 ns cell
  EXPECT_NO_THROW(make(1.0));    // a 424 s cell
}

}  // namespace
}  // namespace phantom::atm
