// Bounded switch cell memory: hard budget, the EPD/PPD/shed degradation
// ladder, MCR frame protection, Choudhury-Hahne port partitioning and
// squeeze-grace accounting.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "atm/buffer_manager.h"

namespace phantom::atm {
namespace {

using sim::Rate;
using sim::Time;
using Verdict = BufferManager::Verdict;

/// Cell `idx` (0-based) of an `len`-cell elastic AAL5 frame.
Cell frame_cell(int vc, std::uint32_t frame, std::uint16_t len,
                std::uint16_t idx) {
  Cell c = Cell::data(vc);
  c.frame = frame;
  c.frame_len = len;
  c.eof = idx + 1 == len;
  return c;
}

/// A guaranteed-class cell: bypasses the frame ladder entirely.
Cell hp_cell(int vc) {
  Cell c = Cell::data(vc);
  c.high_priority = true;
  return c;
}

TEST(BufferConfigTest, ValidatesThresholdOrdering) {
  BufferConfig ok;
  EXPECT_NO_THROW(ok.validate());

  BufferConfig bad = ok;
  bad.budget_cells = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.epd_fraction = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.shed_fraction = bad.epd_fraction - 0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // No occupancy reaches a NaN fraction, so neither may be one.
  bad = ok;
  bad.epd_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(BufferManager{bad}, std::invalid_argument);
  bad = ok;
  bad.shed_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(BufferManager{bad}, std::invalid_argument);
  bad = ok;
  bad.alpha = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(BufferManagerTest, EpdRefusesNewElasticFramesAboveThreshold) {
  BufferConfig cfg;
  cfg.budget_cells = 100;  // EPD at 70, shed at 85
  BufferManager bm{cfg};
  const int port = bm.register_port();

  // Fill to the EPD band with guaranteed-class cells (they bypass the
  // ladder, so the fill itself cannot trip it).
  for (int i = 0; i < 75; ++i) {
    ASSERT_EQ(bm.admit(port, hp_cell(1), Time::zero()), Verdict::kAccept);
  }
  ASSERT_EQ(bm.level(), DegradationLevel::kEarlyDiscard);

  // A new elastic frame is refused whole at its first cell; the later
  // cells of the same frame keep reporting the EPD verdict without
  // inflating the frame counter.
  EXPECT_EQ(bm.admit(port, frame_cell(2, 0, 4, 0), Time::zero()),
            Verdict::kDropEpd);
  EXPECT_EQ(bm.admit(port, frame_cell(2, 0, 4, 1), Time::zero()),
            Verdict::kDropEpd);
  EXPECT_EQ(bm.admit(port, frame_cell(2, 0, 4, 3), Time::zero()),
            Verdict::kDropEpd);
  EXPECT_EQ(bm.frames_epd_discarded(), 1u);
  EXPECT_EQ(bm.worst_level(), DegradationLevel::kEarlyDiscard);

  // With EPD ablated the same arrival is buffered.
  cfg.epd = false;
  BufferManager bare{cfg};
  const int bport = bare.register_port();
  for (int i = 0; i < 75; ++i) {
    ASSERT_EQ(bare.admit(bport, hp_cell(1), Time::zero()), Verdict::kAccept);
  }
  EXPECT_EQ(bare.admit(bport, frame_cell(2, 0, 4, 0), Time::zero()),
            Verdict::kAccept);
}

TEST(BufferManagerTest, ShedRefusesFramesWholeAboveShedThreshold) {
  BufferConfig cfg;
  cfg.budget_cells = 100;
  BufferManager bm{cfg};
  const int port = bm.register_port();
  for (int i = 0; i < 90; ++i) {
    ASSERT_EQ(bm.admit(port, hp_cell(1), Time::zero()), Verdict::kAccept);
  }
  ASSERT_EQ(bm.level(), DegradationLevel::kShedding);

  EXPECT_EQ(bm.admit(port, frame_cell(2, 0, 4, 0), Time::zero()),
            Verdict::kDropShed);
  EXPECT_GE(bm.cells_shed(), 1u);
  EXPECT_EQ(bm.frames_epd_discarded(), 0u) << "shed is not EPD";
}

TEST(BufferManagerTest, PpdDropsDamagedFrameTailButForwardsEom) {
  BufferConfig cfg;
  cfg.budget_cells = 20;           // elastic partition: 18 cells
  cfg.epd_fraction = 0.90;
  cfg.shed_fraction = 0.99;        // keep the ladder out of the way
  cfg.alpha = 100.0;               // and the port threshold too
  BufferManager bm{cfg};
  const int port = bm.register_port();

  // One long elastic frame: cells buffer until the elastic partition is
  // exhausted mid-frame...
  std::uint16_t idx = 0;
  Verdict v = Verdict::kAccept;
  while (v == Verdict::kAccept) {
    v = bm.admit(port, frame_cell(1, 7, 30, idx), Time::zero());
    ++idx;
  }
  EXPECT_EQ(v, Verdict::kDropOverflow);
  EXPECT_EQ(bm.cells_overflow_dropped(), 1u);

  // ...then PPD discards the rest of the tail...
  EXPECT_EQ(bm.admit(port, frame_cell(1, 7, 30, idx), Time::zero()),
            Verdict::kDropPpd);
  EXPECT_EQ(bm.admit(port, frame_cell(1, 7, 30, idx + 1), Time::zero()),
            Verdict::kDropPpd);
  EXPECT_EQ(bm.cells_ppd_discarded(), 2u);

  // ...except the EOM cell, which goes through so the receiver can
  // delimit the corpse.
  EXPECT_EQ(bm.admit(port, frame_cell(1, 7, 30, 29), Time::zero()),
            Verdict::kAccept);
}

TEST(BufferManagerTest, McrTokenBucketProtectsContractedFrames) {
  BufferConfig cfg;
  cfg.budget_cells = 100;
  BufferManager bm{cfg};
  const int port = bm.register_port();
  // 1000 cells/s MCR; contract state starts with two cells of credit.
  bm.set_vc_mcr(2, Rate::cells_per_sec(1000), Time::zero());
  EXPECT_EQ(bm.tracked_vcs(), 1u);

  for (int i = 0; i < 75; ++i) {
    ASSERT_EQ(bm.admit(port, hp_cell(1), Time::zero()), Verdict::kAccept);
  }
  ASSERT_EQ(bm.level(), DegradationLevel::kEarlyDiscard);

  // A 2-cell frame inside the MCR credit rides through EPD...
  EXPECT_EQ(bm.admit(port, frame_cell(2, 0, 2, 0), Time::zero()),
            Verdict::kAccept);
  EXPECT_EQ(bm.admit(port, frame_cell(2, 0, 2, 1), Time::zero()),
            Verdict::kAccept);
  EXPECT_EQ(bm.mcr_protected_cells(), 2u);

  // ...an immediate second frame exceeds the bucket and is EPD'd...
  EXPECT_EQ(bm.admit(port, frame_cell(2, 1, 2, 0), Time::zero()),
            Verdict::kDropEpd);

  // ...and after 2 ms at 1000 cells/s the credit is back.
  EXPECT_EQ(bm.admit(port, frame_cell(2, 2, 2, 0), Time::ms(2)),
            Verdict::kAccept);

  // Elastic traffic from an uncontracted VC stays refused throughout.
  EXPECT_EQ(bm.admit(port, frame_cell(3, 0, 2, 0), Time::ms(2)),
            Verdict::kDropEpd);

  EXPECT_TRUE(bm.evict_vc(2));
  EXPECT_FALSE(bm.evict_vc(2));
  EXPECT_EQ(bm.admit(port, frame_cell(2, 3, 2, 0), Time::ms(4)),
            Verdict::kDropEpd)
      << "an evicted contract no longer protects";
}

TEST(BufferManagerTest, HardBudgetBindsEveryone) {
  BufferConfig cfg;
  cfg.budget_cells = 10;
  BufferManager bm{cfg};
  const int port = bm.register_port();
  bm.set_vc_mcr(1, Rate::mbps(100), Time::zero());

  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(bm.admit(port, hp_cell(9), Time::zero()), Verdict::kAccept);
  }
  ASSERT_EQ(bm.level(), DegradationLevel::kExhausted);

  Cell rm = Cell::forward_rm(1, Rate::mbps(1), Rate::mbps(10));
  EXPECT_EQ(bm.admit(port, rm, Time::zero()), Verdict::kDropOverflow);
  EXPECT_EQ(bm.admit(port, hp_cell(9), Time::zero()), Verdict::kDropOverflow);
  EXPECT_EQ(bm.admit(port, frame_cell(1, 0, 2, 0), Time::zero()),
            Verdict::kDropOverflow)
      << "true exhaustion drops even MCR-protected frames";
  EXPECT_EQ(bm.admit(port, frame_cell(2, 0, 2, 0), Time::zero()),
            Verdict::kDropShed)
      << "exhausted sits above shed on the elastic ladder";
  EXPECT_EQ(bm.worst_level(), DegradationLevel::kExhausted);

  // Departures reopen the ladder from the top.
  for (int i = 0; i < 10; ++i) bm.release(port, hp_cell(9));
  EXPECT_EQ(bm.level(), DegradationLevel::kNormal);
  EXPECT_EQ(bm.cells_in_use(), 0u);
  EXPECT_EQ(bm.peak_cells_in_use(), 10u);
}

TEST(BufferManagerTest, DynamicPortThresholdLeavesRoomForColdPorts) {
  BufferConfig cfg;
  cfg.budget_cells = 90;
  cfg.alpha = 1.0;  // single hot port saturates at budget/2
  cfg.epd_fraction = 0.96;
  cfg.shed_fraction = 0.97;
  BufferManager bm{cfg};
  const int hot = bm.register_port();
  const int cold = bm.register_port();

  int accepted = 0;
  std::uint32_t f = 0;
  while (bm.admit(hot, frame_cell(1, f++, 1, 0), Time::zero()) ==
         Verdict::kAccept) {
    ++accepted;
  }
  // alpha * (budget - in_use) <= in_use at the fixed point budget/2.
  EXPECT_EQ(accepted, 45);
  EXPECT_EQ(bm.cells_in_use(hot), 45u);

  // The other port still gets cells in: the hot port could not strand
  // the whole budget behind one queue.
  EXPECT_EQ(bm.admit(cold, frame_cell(2, 0, 1, 0), Time::zero()),
            Verdict::kAccept);
  EXPECT_EQ(bm.cells_in_use(cold), 1u);
}

TEST(BufferManagerTest, SqueezeGraceShrinksMonotonically) {
  BufferConfig cfg;
  cfg.budget_cells = 100;
  BufferManager bm{cfg};
  const int port = bm.register_port();
  for (int i = 0; i < 80; ++i) {
    ASSERT_EQ(bm.admit(port, hp_cell(1), Time::zero()), Verdict::kAccept);
  }

  bm.squeeze(0.5);
  EXPECT_EQ(bm.effective_budget(), 50u);
  EXPECT_EQ(bm.grace_cells(), 80u) << "pre-squeeze cells get grace";
  EXPECT_TRUE(bm.within_budget());
  EXPECT_EQ(bm.level(), DegradationLevel::kExhausted);

  // New arrivals are refused while over the squeezed budget...
  EXPECT_EQ(bm.admit(port, hp_cell(1), Time::zero()), Verdict::kDropOverflow);

  // ...and the grace allowance only ever shrinks as cells drain.
  std::size_t last_grace = bm.grace_cells();
  for (int i = 0; i < 30; ++i) {
    bm.release(port, hp_cell(1));
    EXPECT_LE(bm.grace_cells(), last_grace);
    EXPECT_TRUE(bm.within_budget());
    last_grace = bm.grace_cells();
  }
  EXPECT_EQ(bm.cells_in_use(), 50u);
  EXPECT_EQ(bm.grace_cells(), 0u) << "back under budget: grace is gone";

  bm.unsqueeze();
  EXPECT_EQ(bm.effective_budget(), 100u);
  EXPECT_EQ(bm.admit(port, hp_cell(1), Time::zero()), Verdict::kAccept);

  EXPECT_THROW(bm.squeeze(0.0), std::invalid_argument);
  EXPECT_THROW(bm.squeeze(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace phantom::atm
