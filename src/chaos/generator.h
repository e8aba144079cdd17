// Randomized fault-schedule generation for the chaos search.
//
// generate_plan() samples a valid FaultPlan against a scenario: fault
// kinds, targets, activation times and overlaps are all drawn from the
// given Rng, so a schedule is a pure function of the seed. Every
// sampled value lands on the text grammar's exact decimal lattice
// (integer-millisecond times, two-decimal probabilities), so
// parse(to_spec(plan)) == plan — the property that lets the shrinker
// emit minimized plans phantom_cli replays byte-identically.
#pragma once

#include "exp/scenario.h"
#include "fault/fault_plan.h"
#include "sim/random.h"

namespace phantom::chaos {

struct GenOptions {
  /// Target event count; a leave/join churn pair counts as two.
  int min_events = 1;
  int max_events = 5;
  /// Earliest activation time; zero means horizon / 3 (past the startup
  /// transient, so the reconvergence oracle has a pre-fault operating
  /// point to measure).
  sim::Time earliest;
  /// Sim time reserved after the last fault stops perturbing the
  /// network, so the oracles can observe recovery before the horizon.
  sim::Time recovery_budget = sim::Time::ms(250);
  sim::Time max_duration = sim::Time::ms(40);   ///< outage/burst/RM window
  sim::Time max_churn_gap = sim::Time::ms(40);  ///< leave -> rejoin gap
  int max_flap_cycles = 3;
  /// Include `misbehave` faults (source defection) in the sampled kind
  /// mix. Opt-in: turning it on changes what every seed generates, so
  /// the default preserves historical plans (and checkpoints) from
  /// seeds recorded before this fault kind existed.
  bool misbehave = false;
  /// Include `rm_blackhole` faults (directional backward-RM loss — the
  /// feedback path goes dark while data keeps flowing) in the sampled
  /// kind mix. Opt-in for the same seed-stability reason as misbehave.
  bool rm_blackhole = false;
  /// Include resource-exhaustion faults (`memsqueeze` buffer squeezes
  /// and `vcstorm` session-setup floods) in the sampled kind mix.
  /// Requires a scenario with overload protection armed (the injector
  /// refuses such plans otherwise). Opt-in for seed stability.
  bool overload = false;
};

/// Samples a fault schedule for `spec`'s topology. Guarantees:
///  * every target index is valid for the built scenario;
///  * every event's perturbation ends by horizon - recovery_budget;
///  * every kLeave is paired with a later kJoin of the same session, so
///    the network ends in its nominal configuration (the differential
///    oracle compares the end state against the fault-free run).
/// Throws std::invalid_argument if the horizon is too short to fit the
/// fault window plus the recovery budget.
[[nodiscard]] fault::FaultPlan generate_plan(sim::Rng& rng,
                                             const exp::Scenario& spec,
                                             const GenOptions& opt = {});

}  // namespace phantom::chaos
