#include "chaos/shrinker.h"

#include <algorithm>

namespace phantom::chaos {
namespace {

using fault::FaultEvent;
using fault::FaultPlan;
using sim::Time;

/// Probe budget: each candidate plan costs one full trial re-run.
constexpr int kMaxShrinkProbes = 400;
/// Durations are never shrunk below this (a 0 ms outage is a no-op).
constexpr Time kMinShrinkDuration = Time::ms(1);

class Shrinker {
 public:
  Shrinker(FaultPlan plan,
           const std::function<bool(const FaultPlan&)>& still_fails)
      : current_{std::move(plan)}, still_fails_{still_fails} {}

  [[nodiscard]] ShrinkResult run() {
    bool changed = true;
    while (changed && probes_ < kMaxShrinkProbes) {
      changed = remove_events();
      changed = simplify_events() || changed;
    }
    return {std::move(current_), probes_};
  }

 private:
  /// True if `candidate` still reproduces the failure; adopts it then.
  bool adopt_if_failing(FaultPlan&& candidate) {
    if (probes_ >= kMaxShrinkProbes) return false;
    ++probes_;
    if (!still_fails_(candidate)) return false;
    current_ = std::move(candidate);
    return true;
  }

  /// One greedy removal sweep to fixpoint: drop any event whose absence
  /// keeps the failure alive. Iterates back-to-front so indices stay
  /// valid across erasures within a sweep.
  bool remove_events() {
    bool any = false;
    bool progress = true;
    while (progress && probes_ < kMaxShrinkProbes) {
      progress = false;
      for (std::size_t i = current_.events.size(); i-- > 0;) {
        if (current_.events.size() == 1) break;  // keep at least one event
        FaultPlan candidate = current_;
        candidate.events.erase(candidate.events.begin() +
                               static_cast<std::ptrdiff_t>(i));
        if (adopt_if_failing(std::move(candidate))) {
          any = true;
          progress = true;
        }
      }
    }
    return any;
  }

  /// Per-event simplification sweep: fewer cycles, shorter windows,
  /// simpler RM faults. Each accepted step re-tries from the new plan.
  bool simplify_events() {
    bool any = false;
    for (std::size_t i = 0; i < current_.events.size(); ++i) {
      // Flap: one cycle is the simplest oscillation.
      if (current_.events[i].kind == FaultEvent::Kind::kFlap) {
        while (current_.events[i].cycles > 1 && probes_ < kMaxShrinkProbes) {
          FaultPlan candidate = current_;
          candidate.events[i].cycles = 1;
          if (!adopt_if_failing(std::move(candidate))) break;
          any = true;
        }
        any = halve(i, &FaultEvent::down_period) || any;
        any = halve(i, &FaultEvent::up_period) || any;
      }
      // Windowed faults: halve the window while the failure survives.
      any = halve(i, &FaultEvent::duration) || any;
      // RM faults: corruption is the more exotic half — try dropping it.
      if (current_.events[i].kind == FaultEvent::Kind::kRmFault &&
          current_.events[i].rm_corrupt > 0.0 && probes_ < kMaxShrinkProbes) {
        FaultPlan candidate = current_;
        candidate.events[i].rm_corrupt = 0.0;
        if (adopt_if_failing(std::move(candidate))) any = true;
      }
    }
    return any;
  }

  /// Repeatedly halves events[i].*field (floored at min_duration) while
  /// the failure reproduces.
  bool halve(std::size_t i, Time FaultEvent::* field) {
    bool any = false;
    while (probes_ < kMaxShrinkProbes) {
      const Time value = current_.events[i].*field;
      if (value <= kMinShrinkDuration) break;
      FaultPlan candidate = current_;
      candidate.events[i].*field = std::max(kMinShrinkDuration, value / 2);
      if (!adopt_if_failing(std::move(candidate))) break;
      any = true;
    }
    return any;
  }

  FaultPlan current_;
  const std::function<bool(const FaultPlan&)>& still_fails_;
  int probes_ = 0;
};

}  // namespace

ShrinkResult shrink(const FaultPlan& failing,
                    const std::function<bool(const FaultPlan&)>& still_fails) {
  return Shrinker{failing, still_fails}.run();
}

}  // namespace phantom::chaos
