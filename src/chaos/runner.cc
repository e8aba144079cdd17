#include "chaos/runner.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "exp/probes.h"
#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "obs/event_log.h"
#include "stats/recovery.h"

namespace phantom::chaos {
namespace {

using sim::Time;

/// Flight-recorder sizing: the ring holds enough recent history to
/// cover several control intervals; failures attach the last few lines.
constexpr std::size_t kFlightRingCapacity = 1024;
constexpr std::size_t kFlightTailDepth = 16;

[[nodiscard]] std::string fmt_mbps(double bps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f Mb/s", bps * 1e-6);
  return buf;
}

[[nodiscard]] sim::RunGuard guard_for(const exp::Scenario& spec,
                                      const WatchdogLimits& wd) {
  sim::RunGuard g;
  g.deadline = spec.horizon;
  g.max_events = wd.max_events;
  g.max_events_per_instant = wd.max_events_per_instant;
  g.progress_every = wd.progress_every;
  g.on_progress = wd.on_progress;
  return g;
}

[[nodiscard]] double settled_share_bps(const exp::Scenario& spec,
                                       const exp::FairShareSampler& share) {
  const Time window = std::min(spec.horizon, Time::ms(50));
  return stats::mean_in_window(share.trace().samples(), spec.horizon - window,
                               spec.horizon);
}

[[nodiscard]] std::uint64_t total_delivered(const topo::AbrNetwork& net) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < net.num_sessions(); ++s) {
    total += net.delivered_cells(s);
  }
  return total;
}

}  // namespace

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kPass:          return "pass";
    case Verdict::kWatchdog:      return "watchdog";
    case Verdict::kInvariant:     return "invariant";
    case Verdict::kNoReconverge:  return "no-reconverge";
    case Verdict::kDifferential:  return "differential";
    case Verdict::kCrash:         return "crash";
    case Verdict::kProcessCrash:  return "process-crash";
  }
  return "?";
}

std::optional<Verdict> verdict_from_string(const std::string& name) {
  for (const Verdict v :
       {Verdict::kPass, Verdict::kWatchdog, Verdict::kInvariant,
        Verdict::kNoReconverge, Verdict::kDifferential, Verdict::kCrash,
        Verdict::kProcessCrash}) {
    if (name == to_string(v)) return v;
  }
  return std::nullopt;
}

Baseline run_baseline(const exp::Scenario& spec, std::uint64_t seed,
                      const TrialOptions& opt) {
  sim::Simulator sim{seed};
  exp::BuiltScenario built = spec.build(sim);
  exp::FairShareSampler share{sim, built.port.controller()};
  if (opt.prepare) opt.prepare(sim, built.net);
  built.net.start_all(Time::zero(), Time::zero());
  const sim::RunOutcome outcome =
      sim.run_guarded(guard_for(spec, opt.watchdog));
  if (outcome != sim::RunOutcome::kDrained &&
      outcome != sim::RunOutcome::kDeadline) {
    throw std::runtime_error{
        std::string{"chaos: fault-free baseline run tripped the watchdog ("} +
        sim::to_string(outcome) + ")"};
  }
  Baseline base;
  base.settled_share_bps = settled_share_bps(spec, share);
  base.delivered_cells = total_delivered(built.net);
  return base;
}

TrialResult run_trial(const exp::Scenario& spec, std::uint64_t seed,
                      const fault::FaultPlan& plan, const TrialOptions& opt,
                      const Baseline* baseline) {
  TrialResult r;
  obs::EventLog log{kFlightRingCapacity};  // outlives the network
  sim::Simulator sim{seed};
  exp::BuiltScenario built = spec.build(sim);
  built.net.attach_event_log(&log);
  fault::FaultInjector injector{sim, built.net};
  injector.set_event_log(&log);
  // Failure verdicts carry the tail of the event log — what the network
  // was doing just before the oracle tripped.
  const auto fail = [&r, &log]() -> TrialResult& {
    r.flight_recorder = log.tail_jsonl(kFlightTailDepth);
    return r;
  };
  try {
    injector.apply(plan);
  } catch (const std::exception& e) {
    r.verdict = Verdict::kCrash;
    r.detail = std::string{"applying plan: "} + e.what();
    return fail();
  }
  fault::InvariantMonitor monitor{sim, built.net, opt.oracle.monitor_period};
  monitor.set_event_log(&log, kFlightTailDepth);
  exp::FairShareSampler share{sim, built.port.controller()};
  exp::QueueSampler queue{sim, built.port};
  if (opt.prepare) opt.prepare(sim, built.net);
  built.net.start_all(Time::zero(), Time::zero());

  sim::RunOutcome outcome;
  try {
    outcome = sim.run_guarded(guard_for(spec, opt.watchdog));
  } catch (const std::exception& e) {
    r.verdict = Verdict::kCrash;
    r.detail = e.what();
    r.events = sim.events_executed();
    return fail();
  }
  monitor.check_now();
  r.events = sim.events_executed();
  r.violations = monitor.violations().size();
  r.peak_queue_cells =
      stats::peak_in_window(queue.trace().samples(), Time::zero(), spec.horizon);
  r.settled_share_mbps = settled_share_bps(spec, share) * 1e-6;

  // 1. Watchdog: a run that exhausted its budgets has no meaningful
  // steady state to judge.
  if (outcome == sim::RunOutcome::kEventBudget ||
      outcome == sim::RunOutcome::kLivelock) {
    r.verdict = Verdict::kWatchdog;
    r.detail = std::string{sim::to_string(outcome)} + " after " +
               std::to_string(r.events) + " events at " +
               sim.now().to_string();
    return fail();
  }

  // 2. Invariants: the machine-checked bookkeeping must stay clean.
  if (!monitor.violations().empty()) {
    const auto& v = monitor.violations().front();
    r.verdict = Verdict::kInvariant;
    r.detail = v.invariant + " at " + v.time.to_string() + ": " + v.detail +
               (r.violations > 1
                    ? " (+" + std::to_string(r.violations - 1) + " more)"
                    : "");
    return fail();
  }

  // 3. Reconvergence: back to the pre-fault operating point within the
  // deadline after the last fault stops perturbing the network.
  if (!plan.empty()) {
    const Time first = plan.first_fault_time();
    const double target = stats::mean_in_window(share.trace().samples(),
                                                first * 0.5, first);
    const Time required_by =
        plan.last_recovery_time() + opt.oracle.recovery_deadline;
    if (target > 0.0 && required_by + opt.oracle.hold <= spec.horizon) {
      r.reconverge_latency =
          stats::time_to_reconverge(share.trace().samples(), first, target,
                                    opt.oracle.rel_tol, opt.oracle.hold);
      if (!r.reconverge_latency) {
        r.verdict = Verdict::kNoReconverge;
        r.detail = "share never returned to pre-fault " + fmt_mbps(target) +
                   " +/- " + std::to_string(static_cast<int>(
                                 opt.oracle.rel_tol * 100)) +
                   "% by " + spec.horizon.to_string();
        return fail();
      }
      if (first + *r.reconverge_latency > required_by) {
        r.verdict = Verdict::kNoReconverge;
        r.detail = "reconverged " + r.reconverge_latency->to_string() +
                   " after the first fault — past the deadline (" +
                   required_by.to_string() + ")";
        return fail();
      }
    }
  }

  // 4. Differential: same seed, same topology, no faults — the network
  // must settle to the same operating point, and faults must never
  // *create* goodput. Exception: a misbehave window legitimately
  // creates cells (a greedy source fills the link past the controller's
  // u-utilization target), so plans carrying one skip the delivered
  // bound — the settled-share check still judges post-comply recovery.
  // A vcstorm skips it for the same reason: its admitted storm sessions
  // deliver cells the fault-free baseline never had.
  bool waive_delivered_bound = false;
  for (const auto& e : plan.events) {
    waive_delivered_bound |= e.kind == fault::FaultEvent::Kind::kMisbehave ||
                             e.kind == fault::FaultEvent::Kind::kVcStorm;
  }
  if (baseline != nullptr) {
    const double clean = baseline->settled_share_bps;
    const double faulted = r.settled_share_mbps * 1e6;
    if (clean > 0.0 &&
        std::abs(faulted - clean) > opt.oracle.differential_tol * clean) {
      r.verdict = Verdict::kDifferential;
      r.detail = "settled share " + fmt_mbps(faulted) +
                 " vs fault-free " + fmt_mbps(clean);
      return fail();
    }
    const std::uint64_t delivered = total_delivered(built.net);
    const auto limit = static_cast<std::uint64_t>(
        static_cast<double>(baseline->delivered_cells) *
        (1.0 + opt.oracle.delivered_slack));
    if (!waive_delivered_bound && delivered > limit) {
      r.verdict = Verdict::kDifferential;
      r.detail = "delivered " + std::to_string(delivered) +
                 " cells, fault-free run delivered only " +
                 std::to_string(baseline->delivered_cells);
      return fail();
    }
  }
  return r;
}

}  // namespace phantom::chaos
