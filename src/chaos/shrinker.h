// Automatic minimization of failing fault schedules (delta debugging).
//
// Given a failing plan and a predicate that re-runs the trial, the
// shrinker greedily removes events, then simplifies the survivors
// (fewer flap cycles, shorter windows, no RM corruption) while the
// failure keeps reproducing. The result is the smallest schedule found
// that still trips the same oracle — the thing a human debugs, and the
// thing the report serializes for `phantom_cli --fault-plan` replay.
#pragma once

#include <functional>

#include "fault/fault_plan.h"

namespace phantom::chaos {

struct ShrinkResult {
  fault::FaultPlan plan;
  int probes = 0;  ///< trials spent shrinking
};

/// Minimizes `failing`. `still_fails` must return true iff the
/// candidate reproduces the original failure; it is never called on the
/// input plan itself (which is assumed failing), and at most
/// kMaxShrinkProbes (400) times. Durations never shrink below 1 ms.
/// Deterministic: the probe order is fixed, so the same input always
/// shrinks to the same output.
[[nodiscard]] ShrinkResult shrink(
    const fault::FaultPlan& failing,
    const std::function<bool(const fault::FaultPlan&)>& still_fails);

}  // namespace phantom::chaos
