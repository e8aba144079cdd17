#include "chaos/runner.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "chaos/json.h"
#include "exp/probes.h"
#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "stats/recovery.h"

namespace phantom::chaos {
namespace {

using sim::Time;

/// Flight-recorder sizing: the ring holds enough recent history to
/// cover several control intervals; failures attach the last few lines.
constexpr std::size_t kFlightRingCapacity = 1024;
constexpr std::size_t kFlightTailDepth = 16;

/// Reconvergence: the fair-share trace must re-enter its pre-fault band
/// (target * (1 ± kShareTolerance)) for good, proven by at least
/// kReconvergeHold inside it, within kRecoveryDeadline after the last
/// fault stops perturbing.
constexpr double kShareTolerance = 0.15;
constexpr Time kRecoveryDeadline = Time::ms(250);
constexpr Time kReconvergeHold = Time::ms(5);
/// Differential: the settled share must be within this relative
/// distance of the fault-free run's, and total goodput must not exceed
/// the fault-free run's by more than kDeliveredSlack (the goodput bound
/// is waived for plans with misbehave or vcstorm events).
constexpr double kDifferentialTolerance = 0.15;
constexpr double kDeliveredSlack = 0.05;
/// How often the InvariantMonitor checks the network.
constexpr Time kMonitorPeriod = Time::ms(1);

[[nodiscard]] std::string fmt_mbps(double bps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f Mb/s", bps * 1e-6);
  return buf;
}

[[nodiscard]] sim::RunGuard guard_for(const exp::Scenario& spec,
                                      const TrialOptions& opt) {
  sim::RunGuard g = opt.watchdog;
  g.deadline = spec.horizon;
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

std::string checkpoint_row(int trial, const std::string& plan_spec,
                           const TrialResult& r) {
  using obs::json_escape;
  std::string out = "{\"trial\": " + std::to_string(trial);
  out += ", \"plan\": \"" + json_escape(plan_spec) + "\"";
  out += ", \"verdict\": \"" + std::string{to_string(r.verdict)} + "\"";
  out += ", \"detail\": \"" + json_escape(r.detail) + "\"";
  out += ", \"events\": " + std::to_string(r.events);
  out += ", \"violations\": " + std::to_string(r.violations);
  out += ", \"reconverge_ns\": " +
         (r.reconverge_latency
              ? std::to_string(r.reconverge_latency->nanoseconds())
              : std::string{"null"});
  out += ", \"settled_share_mbps\": " + fmt_double_exact(r.settled_share_mbps);
  out += ", \"peak_queue_cells\": " + fmt_double_exact(r.peak_queue_cells);
  out += ", \"crash_signal\": \"" + json_escape(r.crash_signal) + "\"";
  out += ", \"exit_code\": " + std::to_string(r.exit_code);
  out += ", \"stderr_tail\": \"" + json_escape(r.stderr_tail) + "\"";
  // Last field, so parse_checkpoint_row's ordered scan reads it after
  // everything else (and rows from older checkpoints simply lack it).
  out += ", \"flight_recorder\": [";
  for (std::size_t i = 0; i < r.flight_recorder.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(r.flight_recorder[i]) + "\"";
  }
  out += "]}";
  return out;
}

std::optional<std::pair<int, TrialResult>> parse_checkpoint_row(
    const std::string& line, std::string* plan_spec) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  JsonLineReader reader{line};
  const auto trial = reader.find_int("trial");
  const auto plan = reader.find_string("plan");
  const auto verdict_name = reader.find_string("verdict");
  const auto detail = reader.find_string("detail");
  const auto events = reader.find_int("events");
  const auto violations = reader.find_int("violations");
  const auto reconverge = reader.find_token("reconverge_ns");
  const auto settled = reader.find_double("settled_share_mbps");
  const auto peak = reader.find_double("peak_queue_cells");
  const auto crash_signal = reader.find_string("crash_signal");
  const auto exit_code = reader.find_int("exit_code");
  const auto stderr_tail = reader.find_string("stderr_tail");
  if (!trial || !plan || !verdict_name || !detail || !events || !violations ||
      !reconverge || !settled || !peak || !crash_signal || !exit_code ||
      !stderr_tail) {
    return std::nullopt;
  }
  const auto verdict = verdict_from_string(*verdict_name);
  if (!verdict) return std::nullopt;

  TrialResult r;
  r.verdict = *verdict;
  r.detail = *detail;
  r.events = static_cast<std::uint64_t>(*events);
  r.violations = static_cast<std::size_t>(*violations);
  if (*reconverge != "null") {
    char* end = nullptr;
    const long long ns = std::strtoll(reconverge->c_str(), &end, 10);
    if (end != reconverge->c_str() + reconverge->size()) return std::nullopt;
    r.reconverge_latency = sim::Time::ns(ns);
  }
  r.settled_share_mbps = *settled;
  r.peak_queue_cells = *peak;
  r.crash_signal = *crash_signal;
  r.exit_code = static_cast<int>(*exit_code);
  r.stderr_tail = *stderr_tail;
  // Optional (rows written before the flight recorder existed lack it).
  if (auto flight = reader.find_string_array("flight_recorder")) {
    r.flight_recorder = std::move(*flight);
  }
  if (plan_spec != nullptr) *plan_spec = *plan;
  return std::make_pair(static_cast<int>(*trial), r);
}

Baseline run_baseline(const exp::Scenario& spec, std::uint64_t seed,
                      const TrialOptions& opt) {
  sim::Simulator sim{seed};
  exp::BuiltScenario built = spec.build(sim);
  exp::FairShareSampler share{sim, built.port.controller()};
  if (opt.prepare) opt.prepare(sim, built.net);
  built.net.start_all(Time::zero(), Time::zero());
  const sim::RunOutcome outcome =
      sim.run_guarded(guard_for(spec, opt));
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
  fault::InvariantMonitor monitor{sim, built.net, kMonitorPeriod};
  monitor.set_event_log(&log, kFlightTailDepth);
  exp::FairShareSampler share{sim, built.port.controller()};
  exp::QueueSampler queue{sim, built.port};
  if (opt.prepare) opt.prepare(sim, built.net);
  built.net.start_all(Time::zero(), Time::zero());

  sim::RunOutcome outcome;
  try {
    outcome = sim.run_guarded(guard_for(spec, opt));
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
    const Time required_by = plan.last_recovery_time() + kRecoveryDeadline;
    if (target > 0.0 && required_by + kReconvergeHold <= spec.horizon) {
      r.reconverge_latency =
          stats::time_to_reconverge(share.trace().samples(), first, target,
                                    kShareTolerance, kReconvergeHold);
      if (!r.reconverge_latency) {
        r.verdict = Verdict::kNoReconverge;
        r.detail = "share never returned to pre-fault " + fmt_mbps(target) +
                   " +/- " +
                   std::to_string(static_cast<int>(kShareTolerance * 100)) +
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
        std::abs(faulted - clean) > kDifferentialTolerance * clean) {
      r.verdict = Verdict::kDifferential;
      r.detail = "settled share " + fmt_mbps(faulted) +
                 " vs fault-free " + fmt_mbps(clean);
      return fail();
    }
    const std::uint64_t delivered = total_delivered(built.net);
    const auto limit = static_cast<std::uint64_t>(
        static_cast<double>(baseline->delivered_cells) *
        (1.0 + kDeliveredSlack));
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
