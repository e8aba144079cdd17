#include "chaos/generator.h"

#include <algorithm>
#include <stdexcept>

namespace phantom::chaos {
namespace {

using fault::FaultPlan;
using fault::FaultTarget;
using sim::Time;

/// Faults start at horizon / kWarmupDivisor at the earliest.
constexpr std::int64_t kWarmupDivisor = 3;
constexpr std::int64_t kMaxWindowMs = 40;    ///< outage/burst/RM window
constexpr std::int64_t kMaxChurnGapMs = 40;  ///< leave -> rejoin gap
constexpr int kMaxFlapCycles = 3;

/// Uniform integer-millisecond instant in [lo, hi].
[[nodiscard]] Time pick_ms(sim::Rng& rng, std::int64_t lo_ms,
                           std::int64_t hi_ms) {
  return Time::ms(rng.uniform_int(lo_ms, hi_ms));
}

/// Two-decimal probability in [lo_pct, hi_pct] percent. Dividing by 100
/// yields the identical double the parser produces from the rendered
/// "0.NN" token, keeping generated plans on the grammar's lattice.
[[nodiscard]] double pick_pct(sim::Rng& rng, int lo_pct, int hi_pct) {
  return static_cast<double>(rng.uniform_int(lo_pct, hi_pct)) / 100.0;
}

/// Any link-faultable target: trunks first, then destination links.
[[nodiscard]] FaultTarget pick_link_target(sim::Rng& rng,
                                           const exp::TopologyInfo& topo) {
  const auto n = topo.trunks + topo.dests;
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  return i < topo.trunks ? fault::trunk(i) : fault::dest(i - topo.trunks);
}

/// A target whose port runs a real (restartable) controller.
[[nodiscard]] FaultTarget pick_restart_target(sim::Rng& rng,
                                              const exp::TopologyInfo& topo) {
  const auto n = topo.trunks + topo.controlled_dests;
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  return i < topo.trunks ? fault::trunk(i) : fault::dest(i - topo.trunks);
}

}  // namespace

FaultPlan generate_plan(sim::Rng& rng, const exp::Scenario& spec,
                        const GenOptions& opt) {
  const exp::TopologyInfo topo = topology_info(spec);
  const Time earliest = spec.horizon / kWarmupDivisor;
  const Time latest = spec.horizon - opt.recovery_budget -
                      Time::ms(std::max(kMaxWindowMs, kMaxChurnGapMs));
  const auto lo_ms = static_cast<std::int64_t>(earliest.milliseconds());
  const auto hi_ms = static_cast<std::int64_t>(latest.milliseconds());
  if (hi_ms < lo_ms) {
    throw std::invalid_argument{
        "chaos: horizon " + spec.horizon.to_string() +
        " leaves no fault window (earliest " + earliest.to_string() +
        ", recovery budget " + opt.recovery_budget.to_string() + ")"};
  }

  // Opt-in kinds widen the draw range without renumbering the stable
  // kinds: the draw indexes this table, so a `misbehave`-only seed
  // still maps slot 6 -> misbehave, an rm_blackhole-only seed maps its
  // single extra slot onto case 7, and every pre-existing flag combo
  // reproduces its historical RNG stream exactly.
  std::vector<int> enabled_kinds{0, 1, 2, 3, 4, 5};
  if (opt.misbehave) enabled_kinds.push_back(6);
  if (opt.rm_blackhole) enabled_kinds.push_back(7);
  if (opt.overload) {
    enabled_kinds.push_back(8);
    enabled_kinds.push_back(9);
  }

  FaultPlan plan;
  const int target_events = static_cast<int>(
      rng.uniform_int(opt.min_events, std::max(opt.min_events, opt.max_events)));
  while (static_cast<int>(plan.events.size()) < target_events) {
    const Time at = pick_ms(rng, lo_ms, hi_ms);
    const std::size_t before = plan.events.size();
    const int kind = enabled_kinds[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(enabled_kinds.size()) - 1))];
    switch (kind) {
      case 0:
        plan.outage(pick_link_target(rng, topo), at,
                    pick_ms(rng, 1, kMaxWindowMs));
        break;
      case 1: {
        const int cycles =
            static_cast<int>(rng.uniform_int(1, kMaxFlapCycles));
        // Down/up periods sized so the whole flap fits the event window.
        const std::int64_t half =
            std::max<std::int64_t>(1, kMaxWindowMs / (2 * cycles));
        plan.flap(pick_link_target(rng, topo), at, cycles,
                  pick_ms(rng, 1, half), pick_ms(rng, 1, half));
        break;
      }
      case 2:
        plan.burst(pick_link_target(rng, topo), at,
                   pick_ms(rng, 1, kMaxWindowMs), pick_pct(rng, 5, 50),
                   pick_pct(rng, 10, 80), pick_pct(rng, 20, 100));
        break;
      case 3:
        plan.rm_fault(pick_link_target(rng, topo), at,
                      pick_ms(rng, 1, kMaxWindowMs), pick_pct(rng, 5, 60),
                      pick_pct(rng, 0, 50));
        break;
      case 4:
        plan.restart(pick_restart_target(rng, topo), at);
        break;
      case 5: {
        const auto s = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(topo.sessions) - 1));
        plan.leave(s, at);
        plan.join(s, at + pick_ms(rng, 2, kMaxChurnGapMs));
        break;
      }
      case 6: {
        // Defection window: misbehave, then return to compliance after
        // a churn-sized gap, so the end state matches the fault-free
        // run (same contract as the leave/join pair).
        const auto s = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(topo.sessions) - 1));
        const auto mode =
            static_cast<fault::MisbehaveMode>(rng.uniform_int(0, 2));
        // Compliance on the two-decimal lattice keeps the round trip
        // exact; only kPartial records it.
        plan.misbehave(s, at, mode, pick_pct(rng, 10, 90));
        plan.comply(s, at + pick_ms(rng, 2, kMaxChurnGapMs));
        break;
      }
      case 7:
        // Feedback blackhole: recovery is paired into the event (the
        // window end restores the reverse link), so the end state
        // matches the fault-free run like every other windowed fault.
        // Drop probability on the two-decimal lattice; 1.00 serializes
        // without the optional field and parses back to the default.
        plan.rm_blackhole(pick_link_target(rng, topo), at,
                          pick_ms(rng, 1, kMaxWindowMs),
                          pick_pct(rng, 50, 100));
        break;
      case 8:
        // Memory squeeze: always windowed so the budget is restored
        // before the horizon and the end state matches the fault-free
        // run. Fraction on the two-decimal lattice for the round trip.
        plan.memsqueeze(at, pick_pct(rng, 10, 90),
                        pick_ms(rng, 1, kMaxWindowMs));
        break;
      case 9:
        // VC storm: admitted storm sessions tear down at the window
        // end, so pre-existing sessions end in their nominal state.
        plan.vcstorm(at, static_cast<int>(rng.uniform_int(2, 16)),
                     pick_ms(rng, 1, kMaxWindowMs));
        break;
    }
    // The grammar rejects two events of the same kind / target /
    // instant as duplicates; drop a colliding draw and redraw so every
    // generated plan survives the parse(to_spec()) round trip. (Extra
    // RNG draws happen only where the old generator produced a plan
    // the shrinker could never have replayed anyway.)
    for (std::size_t n = before; n < plan.events.size(); ++n) {
      for (std::size_t i = 0; i < before; ++i) {
        if (plan.events[i].kind == plan.events[n].kind &&
            plan.events[i].target == plan.events[n].target &&
            plan.events[i].at == plan.events[n].at) {
          plan.events.resize(before);
          n = plan.events.size();  // break both loops
          break;
        }
      }
    }
  }
  return plan;
}

}  // namespace phantom::chaos
