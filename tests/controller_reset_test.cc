// reset() on every algorithm must restore a controller to the state a
// freshly constructed one has: after a warm-up history and a reset, the
// observable rate outputs (ER written into backward RM cells and the
// fair-share estimate) must exactly match a brand-new controller fed
// the identical post-reset sequence. This is what makes the restart
// fault meaningful — a "restarted" controller that secretly remembers
// (or forgets to re-arm) learned state would corrupt every recovery
// measurement built on it.
//
// A restart must also be visible: every change of the estimate, resets
// and warm seeds included, reaches both sinks behind the controller's
// one publish hook (the event log and a caller-owned series).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "atm/cell.h"
#include "exp/factories.h"
#include "obs/event_log.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Time;

/// One scripted step of controller input: some data cells, a forward RM
/// carrying a CCR, and a backward RM probe whose resulting ER is the
/// observable output.
struct Step {
  int data_cells;
  double ccr_mbps;
  std::size_t queue_len;
};

const std::vector<Step>& script() {
  static const std::vector<Step> steps = {
      {40, 150.0, 0},  {80, 120.0, 5},   {120, 90.0, 40}, {200, 60.0, 120},
      {30, 45.0, 260}, {10, 30.0, 90},   {60, 75.0, 15},  {90, 110.0, 2},
      {150, 95.0, 55}, {20, 140.0, 400},
  };
  return steps;
}

/// Feeds one step and returns the ER the controller wrote into the
/// backward RM probe.
double feed(atm::PortController& c, const Step& s, int vc) {
  for (int i = 0; i < s.data_cells; ++i) {
    c.on_cell_accepted(atm::Cell::data(vc), s.queue_len + 1);
  }
  atm::Cell frm =
      atm::Cell::forward_rm(vc, Rate::mbps(s.ccr_mbps), Rate::mbps(365));
  c.on_forward_rm(frm, s.queue_len);
  atm::Cell brm = frm;
  brm.kind = atm::CellKind::kBackwardRm;
  c.on_backward_rm(brm, s.queue_len);
  return brm.er.bits_per_sec();
}

class ControllerResetTest : public testing::TestWithParam<exp::Algorithm> {};

TEST_P(ControllerResetTest, ResetEqualsFreshlyConstructed) {
  const auto factory = exp::make_factory(GetParam());
  sim::Simulator sim;
  const Rate link = Rate::mbps(150);
  auto warmed = factory(sim, link);

  // Warm-up: 20 ms of scripted, bursty history (all five algorithms run
  // a 1 ms measurement interval, so this spans 20 ticks).
  int vc = 0;
  for (std::int64_t t = 0; t < 40; ++t) {
    sim.run_until(Time::us(500) * t + Time::us(250));
    (void)feed(*warmed, script()[static_cast<std::size_t>(t) % script().size()],
               vc);
    vc = (vc + 1) % 3;
  }
  sim.run_until(Time::ms(20));  // every interval tick through 20 ms has run

  // The moment under test: restart the warmed controller and construct
  // a pristine one at the same instant (same interval-timer phase).
  warmed->reset();
  auto fresh = factory(sim, link);

  // Identical post-reset input to both; outputs must match exactly at
  // every probe, including across interval ticks.
  for (std::int64_t t = 0; t < 40; ++t) {
    sim.run_until(Time::ms(20) + Time::us(500) * t + Time::us(250));
    const Step& s =
        script()[static_cast<std::size_t>(t * 3 + 1) % script().size()];
    const double er_warmed = feed(*warmed, s, vc);
    const double er_fresh = feed(*fresh, s, vc);
    EXPECT_DOUBLE_EQ(er_warmed, er_fresh) << "probe " << t << " at "
                                          << sim.now().to_string();
    EXPECT_DOUBLE_EQ(warmed->fair_share().bits_per_sec(),
                     fresh->fair_share().bits_per_sec())
        << "probe " << t;
    EXPECT_EQ(warmed->mark_efci(s.queue_len), fresh->mark_efci(s.queue_len))
        << "probe " << t;
    vc = (vc + 2) % 3;
  }
}

TEST_P(ControllerResetTest, EveryEstimateChangeReachesLogAndSeries) {
  const auto factory = exp::make_factory(GetParam());
  sim::Simulator sim;
  auto ctl = factory(sim, Rate::mbps(150));
  const double boot_bps = ctl->fair_share().bits_per_sec();
  obs::EventLog log{1 << 12};
  sim::Trace series;
  ctl->set_event_log(&log, 0, 0);
  ctl->set_rate_trace(&series, sim.now());

  // One scripted step every 500 us, as in the reset test above.
  std::size_t k = 0;
  const auto drive = [&](int steps) {
    for (int i = 0; i < steps; ++i, ++k) {
      sim.run_until(sim.now() + Time::us(500));
      (void)feed(*ctl, script()[k % script().size()], static_cast<int>(k % 3));
    }
  };
  drive(40);  // 20 ms of history
  ctl->reset();
  const Time cold_at = sim.now();
  drive(21);  // the first FRM after the warm restart carries 120 Mb/s
  ctl->warm_restart();
  const Time warm_at = sim.now();
  while (ctl->warm_audit()->window_open && k < 400) drive(1);
  ASSERT_FALSE(ctl->warm_audit()->window_open) << "warm window never closed";
  const Time seed_at = sim.now();  // the window closed in the last step
  const double seed_bps = ctl->warm_audit()->seeded_bps;
  ASSERT_GT(seed_bps, 0.0);
  drive(4);  // a few ticks past the seed

  std::vector<obs::Event> updates;
  log.for_each([&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kRateUpdate) updates.push_back(e);
  });
  ASSERT_EQ(log.overwritten(), 0u);

  // The series opens with the estimate at attach; after that it and the
  // log agree one for one.
  const auto samples = series.samples();
  ASSERT_EQ(samples.size(), updates.size() + 1);
  EXPECT_EQ(samples[0], (sim::Sample{Time::zero(), boot_bps}));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(samples[i + 1].time, updates[i].time) << "update " << i;
    EXPECT_EQ(samples[i + 1].value / 1e6, updates[i].a) << "update " << i;
  }

  // Both restarts publish the boot estimate at the restart instant, and
  // the warm window's close publishes its seed, even where the same
  // tick overwrites it.
  const auto has = [&](Time at, double bps) {
    const bool in_series =
        std::any_of(samples.begin() + 1, samples.end(), [&](const auto& s) {
          return s.time == at && s.value == bps;
        });
    const bool in_log =
        std::any_of(updates.begin(), updates.end(), [&](const auto& e) {
          return e.time == at && e.a == bps / 1e6;
        });
    return in_series && in_log;
  };
  EXPECT_TRUE(has(cold_at, boot_bps)) << "reset() at " << cold_at.to_string();
  EXPECT_TRUE(has(warm_at, boot_bps))
      << "warm_restart() at " << warm_at.to_string();
  EXPECT_TRUE(has(seed_at, seed_bps)) << "warm seed at " << seed_at.to_string();
}

std::string reset_name(const testing::TestParamInfo<exp::Algorithm>& info) {
  return exp::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ControllerResetTest,
                         testing::Values(exp::Algorithm::kPhantom,
                                         exp::Algorithm::kEprca,
                                         exp::Algorithm::kAprc,
                                         exp::Algorithm::kCapc,
                                         exp::Algorithm::kErica),
                         reset_name);

}  // namespace
}  // namespace phantom
