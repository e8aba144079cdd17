#include "atm/abr_source.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace phantom::atm {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

class Collector final : public CellSink {
 public:
  void receive_cell(Cell cell) override { cells.push_back(cell); }
  [[nodiscard]] std::size_t count(CellKind k) const {
    std::size_t n = 0;
    for (const auto& c : cells) n += (c.kind == k) ? 1 : 0;
    return n;
  }
  std::vector<Cell> cells;
};

AbrParams small_params() {
  AbrParams p;
  p.icr = Rate::mbps(8.5);
  return p;
}

Cell brm(int vc, bool ci, Rate er) {
  Cell c = Cell::forward_rm(vc, Rate::zero(), er);
  c.kind = CellKind::kBackwardRm;
  c.ci = ci;
  return c;
}

struct SourceFixture {
  Simulator sim;
  Collector net;
  AbrSource src{sim, 1, small_params(), Link{sim, Time::zero(), net}};
};

TEST(AbrSourceTest, StartsAtIcr) {
  SourceFixture f;
  EXPECT_DOUBLE_EQ(f.src.acr().mbits_per_sec(), 8.5);
  EXPECT_FALSE(f.src.active());
}

TEST(AbrSourceTest, PacesCellsAtAcr) {
  SourceFixture f;
  f.src.start(Time::zero());
  f.sim.run_until(Time::ms(10));
  // 8.5 Mb/s = 20047 cells/s -> ~200 cells in 10 ms.
  const auto total = f.net.cells.size();
  EXPECT_NEAR(static_cast<double>(total), 200.0, 3.0);
}

TEST(AbrSourceTest, OneRmCellPerNrmCells) {
  SourceFixture f;
  f.src.start(Time::zero());
  f.sim.run_until(Time::ms(50));
  const auto frm = f.net.count(CellKind::kForwardRm);
  const auto data = f.net.count(CellKind::kData);
  ASSERT_GT(frm, 5u);
  // data : FRM ratio is Nrm-1 : 1.
  EXPECT_NEAR(static_cast<double>(data) / static_cast<double>(frm), 31.0, 1.0);
  EXPECT_EQ(f.src.rm_cells_sent(), frm);
  EXPECT_EQ(f.src.data_cells_sent(), data);
}

TEST(AbrSourceTest, FirstCellIsForwardRm) {
  SourceFixture f;
  f.src.start(Time::zero());
  f.sim.run_until(Time::us(10));
  ASSERT_FALSE(f.net.cells.empty());
  EXPECT_EQ(f.net.cells[0].kind, CellKind::kForwardRm);
  EXPECT_DOUBLE_EQ(f.net.cells[0].ccr.mbits_per_sec(), 8.5);
  EXPECT_DOUBLE_EQ(f.net.cells[0].er.mbits_per_sec(), 150.0);
}

TEST(AbrSourceTest, AdditiveIncreaseOnCleanBrm) {
  SourceFixture f;
  f.src.start(Time::zero());
  f.sim.run_until(Time::us(1));
  f.src.receive_cell(brm(1, /*ci=*/false, Rate::mbps(150)));
  EXPECT_DOUBLE_EQ(f.src.acr().mbits_per_sec(), 8.5 + 4.25);
  EXPECT_EQ(f.src.brm_cells_received(), 1u);
}

TEST(AbrSourceTest, MultiplicativeDecreaseOnCi) {
  SourceFixture f;
  f.src.start(Time::zero());
  f.src.receive_cell(brm(1, /*ci=*/true, Rate::mbps(150)));
  // ACR *= (1 - 32/256) = 0.875.
  EXPECT_DOUBLE_EQ(f.src.acr().mbits_per_sec(), 8.5 * 0.875);
}

TEST(AbrSourceTest, ErClampsAcr) {
  SourceFixture f;
  f.src.receive_cell(brm(1, false, Rate::mbps(2)));
  EXPECT_DOUBLE_EQ(f.src.acr().mbits_per_sec(), 2.0);
}

TEST(AbrSourceTest, AcrNeverExceedsPcr) {
  SourceFixture f;
  for (int i = 0; i < 100; ++i) {
    f.src.receive_cell(brm(1, false, Rate::mbps(1000)));
  }
  EXPECT_DOUBLE_EQ(f.src.acr().mbits_per_sec(), 150.0);
}

TEST(AbrSourceTest, AcrNeverDropsBelowTcr) {
  SourceFixture f;
  for (int i = 0; i < 200; ++i) {
    f.src.receive_cell(brm(1, true, Rate::mbps(150)));
  }
  EXPECT_DOUBLE_EQ(f.src.acr().bits_per_sec(),
                   Rate::cells_per_sec(10).bits_per_sec());
}

TEST(AbrSourceTest, McrIsRespected) {
  Simulator sim;
  Collector net;
  AbrParams p = small_params();
  p.mcr = Rate::mbps(1);
  AbrSource src{sim, 1, p, Link{sim, Time::zero(), net}};
  for (int i = 0; i < 200; ++i) src.receive_cell(brm(1, true, Rate::mbps(150)));
  EXPECT_DOUBLE_EQ(src.acr().mbits_per_sec(), 1.0);
}

TEST(AbrSourceTest, IgnoresForeignAndForwardCells) {
  SourceFixture f;
  f.src.receive_cell(brm(2, false, Rate::mbps(150)));     // other VC
  f.src.receive_cell(Cell::forward_rm(1, Rate::zero(), Rate::mbps(1)));
  EXPECT_DOUBLE_EQ(f.src.acr().mbits_per_sec(), 8.5);
  EXPECT_EQ(f.src.brm_cells_received(), 0u);
}

TEST(AbrSourceTest, DeactivationStopsTransmission) {
  SourceFixture f;
  f.src.start(Time::zero());
  f.sim.run_until(Time::ms(5));
  const auto sent = f.net.cells.size();
  f.src.set_active(false);
  f.sim.run_until(Time::ms(10));
  EXPECT_EQ(f.net.cells.size(), sent);
}

TEST(AbrSourceTest, ReactivationResumes) {
  SourceFixture f;
  f.src.start(Time::zero());
  f.sim.run_until(Time::ms(2));
  f.src.set_active(false);
  f.sim.run_until(Time::ms(3));
  const auto sent = f.net.cells.size();
  f.src.set_active(true);
  f.sim.run_until(Time::ms(6));
  EXPECT_GT(f.net.cells.size(), sent);
}

TEST(AbrSourceTest, UseItOrLoseItResetsToIcrAfterLongIdle) {
  SourceFixture f;
  f.src.start(Time::zero());
  // Pump the rate up.
  for (int i = 0; i < 20; ++i) f.src.receive_cell(brm(1, false, Rate::mbps(150)));
  f.sim.run_until(Time::ms(1));
  EXPECT_GT(f.src.acr().mbits_per_sec(), 50.0);
  f.src.set_active(false);
  // Idle far beyond TOF * Nrm cell times.
  f.sim.run_until(Time::sec(1));
  f.src.set_active(true);
  EXPECT_DOUBLE_EQ(f.src.acr().mbits_per_sec(), 8.5);
}

TEST(AbrSourceTest, ShortIdleKeepsAcr) {
  SourceFixture f;
  f.src.start(Time::zero());
  for (int i = 0; i < 20; ++i) f.src.receive_cell(brm(1, false, Rate::mbps(150)));
  f.sim.run_until(Time::ms(1));
  const double acr = f.src.acr().mbits_per_sec();
  f.src.set_active(false);
  // At 93.5 Mb/s the nrm-block timeout is ~2 * 32 * 4.5us = ~290us; idle 50us.
  f.sim.run_until(Time::ms(1) + Time::us(50));
  f.src.set_active(true);
  EXPECT_DOUBLE_EQ(f.src.acr().mbits_per_sec(), acr);
}

TEST(AbrSourceTest, AcrTraceRecordsChanges) {
  SourceFixture f;
  sim::Trace acr;
  f.src.set_acr_trace(&acr);
  f.src.start(Time::zero());
  f.sim.run_until(Time::us(1));
  f.src.receive_cell(brm(1, false, Rate::mbps(150)));
  EXPECT_GE(acr.size(), 2u);
  EXPECT_DOUBLE_EQ(acr.back().value, (8.5 + 4.25) * 1e6);
}

TEST(AbrSourceTest, ValidatesParams) {
  Simulator sim;
  Collector net;
  AbrParams bad;
  bad.icr = Rate::mbps(200);  // exceeds PCR
  EXPECT_THROW((AbrSource{sim, 1, bad, Link{sim, Time::zero(), net}}),
               std::invalid_argument);
  AbrParams bad2;
  bad2.nrm = 1;
  EXPECT_THROW((AbrSource{sim, 1, bad2, Link{sim, Time::zero(), net}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace phantom::atm
