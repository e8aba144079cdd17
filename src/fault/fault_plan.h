// Scriptable fault schedules for resilience experiments.
//
// A FaultPlan is pure data: a list of fault events with absolute
// activation times, built either programmatically (fluent builders) or
// from a compact text spec (`parse`, used by phantom_cli --fault-plan).
// fault::FaultInjector resolves the targets against a topo::AbrNetwork
// and schedules the transitions on the simulator clock.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace phantom::fault {

/// What a fault event acts on. Trunk faults hit both directions of the
/// duplex trunk (data forward, returning RM cells backward); dest
/// faults hit the link feeding the destination endpoint.
struct FaultTarget {
  enum class Kind { kTrunk, kDest, kSession };
  Kind kind = Kind::kTrunk;
  std::size_t index = 0;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] inline FaultTarget trunk(std::size_t i) {
  return {FaultTarget::Kind::kTrunk, i};
}
[[nodiscard]] inline FaultTarget dest(std::size_t i) {
  return {FaultTarget::Kind::kDest, i};
}
[[nodiscard]] inline FaultTarget session(std::size_t i) {
  return {FaultTarget::Kind::kSession, i};
}

/// How a session misbehaves (kMisbehave); mirrors atm::SourceBehavior
/// without coupling the plan grammar to the ATM layer.
enum class MisbehaveMode {
  kGreedy,   ///< ignore ER/CI, transmit at PCR
  kForge,    ///< greedy + forged RM cells (inflated ER, fake BRMs)
  kPartial,  ///< obey ER scaled by a compliance factor
};

[[nodiscard]] std::string to_string(MisbehaveMode m);

struct FaultEvent {
  enum class Kind {
    kOutage,     ///< link drops everything during [at, at + duration)
    kFlap,       ///< `cycles` down/up windows starting at `at`
    kBurst,      ///< Gilbert–Elliott burst loss during [at, at + duration)
    kRmFault,    ///< RM-only drop/corruption during [at, at + duration)
    kRmBlackhole,  ///< backward-RM-only loss during [at, at + duration):
                   ///< the feedback direction goes dark while data and
                   ///< forward RM cells keep flowing — the scenario the
                   ///< source-side Crm/CDF/ADTF decay exists for
    kRestart,    ///< wipe the port controller's learned state at `at`
    kLeave,      ///< deactivate an ABR session at `at`
    kJoin,       ///< (re)activate an ABR session at `at`
    kMisbehave,  ///< session defects from the feedback protocol at `at`
    kComply,     ///< session returns to compliant behaviour at `at`
    kMemSqueeze,  ///< shrink every switch's cell-memory budget to a
                  ///< fraction during [at, at + duration) (network-wide;
                  ///< zero duration = the rest of the run)
    kVcStorm,     ///< offer `storm_sessions` extra session setups at `at`
                  ///< (cloning session 0's shape); admitted storm
                  ///< sessions tear down at `at + duration`
    kCustom,     ///< run an arbitrary callback at `at` (programmatic only)
  };

  Kind kind = Kind::kOutage;
  FaultTarget target;
  sim::Time at;                         ///< absolute activation time
  sim::Time duration = sim::Time::zero();  ///< outage / burst / RM window

  // Flapping.
  sim::Time down_period;
  sim::Time up_period;
  int cycles = 1;

  // Gilbert–Elliott parameters (kBurst).
  double p_good_bad = 0.0;
  double p_bad_good = 0.0;
  double loss_bad = 0.0;

  // RM-targeted fault parameters (kRmFault; kRmBlackhole uses rm_loss
  // for its backward-direction drop probability).
  double rm_loss = 0.0;
  double rm_corrupt = 0.0;

  /// kRestart only: warm restarts rebuild the controller's estimate
  /// from the first window of observed RM traffic (PortController::
  /// warm_restart) instead of cold-booting at the initial constant.
  bool warm = false;

  // Misbehaving-source parameters (kMisbehave).
  MisbehaveMode mode = MisbehaveMode::kGreedy;
  double compliance = 0.0;  ///< kPartial only; always 0 otherwise

  // Resource-exhaustion parameters.
  double mem_frac = 0.0;    ///< kMemSqueeze: remaining budget fraction (0,1]
  int storm_sessions = 0;   ///< kVcStorm: session setups to offer

  /// kCustom hook: arbitrary scripted action (e.g. TCP flow churn, a
  /// demand change) on the same schedule as the built-in faults.
  std::function<void()> action;
  std::string label;  ///< description for kCustom events

  [[nodiscard]] std::string describe() const;

  /// When the event stops perturbing the network: at + duration, or at +
  /// cycles * (down + up) for a flap. Throws std::invalid_argument when
  /// that instant is beyond sim::Time's range.
  [[nodiscard]] sim::Time end() const;

  /// This event in the text grammar (the exact form parse() accepts).
  /// Throws std::logic_error for kCustom: arbitrary callbacks have no
  /// textual form, so shrinker output and CLI replay exclude them.
  [[nodiscard]] std::string to_spec() const;
};

/// Structural equality over every scriptable field. kCustom callbacks
/// are not comparable; two custom events are equal when their times and
/// labels match (the shrinker and the round-trip property test only ever
/// compare fully scriptable plans).
[[nodiscard]] bool operator==(const FaultEvent& a, const FaultEvent& b);
[[nodiscard]] inline bool operator!=(const FaultEvent& a, const FaultEvent& b) {
  return !(a == b);
}

[[nodiscard]] bool operator==(const FaultTarget& a, const FaultTarget& b);

/// An ordered (by construction, not sorted) fault schedule.
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& outage(FaultTarget t, sim::Time at, sim::Time duration);
  /// `cycles` repetitions of (down for `down`, up for `up`), first going
  /// down at `at`.
  FaultPlan& flap(FaultTarget t, sim::Time at, int cycles, sim::Time down,
                  sim::Time up);
  FaultPlan& burst(FaultTarget t, sim::Time at, sim::Time duration,
                   double p_good_bad, double p_bad_good, double loss_bad);
  FaultPlan& rm_fault(FaultTarget t, sim::Time at, sim::Time duration,
                      double drop_probability, double corrupt_probability);
  /// Directional feedback loss: backward RM cells returning through `t`
  /// are dropped with `drop_probability` (default: all of them) during
  /// the window; the forward direction is untouched. Recovery is paired
  /// into the event — the window end restores the link.
  FaultPlan& rm_blackhole(FaultTarget t, sim::Time at, sim::Time duration,
                          double drop_probability = 1.0);
  FaultPlan& restart(FaultTarget t, sim::Time at, bool warm = false);
  FaultPlan& leave(std::size_t session_index, sim::Time at);
  FaultPlan& join(std::size_t session_index, sim::Time at);
  /// Session defects at `at`. `compliance` is only meaningful (and only
  /// recorded) for MisbehaveMode::kPartial; it must lie in [0, 1].
  FaultPlan& misbehave(std::size_t session_index, sim::Time at,
                       MisbehaveMode mode, double compliance = 0.0);
  /// Session returns to TM 4.0 behaviour (re-entering at ICR).
  FaultPlan& comply(std::size_t session_index, sim::Time at);
  /// Every switch's effective cell-memory budget drops to `fraction` of
  /// its configured size during [at, at + duration); zero duration means
  /// the squeeze holds for the rest of the run. Requires a network with
  /// overload protection enabled (the injector validates this).
  FaultPlan& memsqueeze(sim::Time at, double fraction,
                        sim::Time duration = sim::Time::zero());
  /// Offers `sessions` extra session setups at `at`, each cloning
  /// session 0's shape and parameters — admission control decides which
  /// get in. Admitted storm sessions start immediately and tear down at
  /// `at + duration` (zero duration = they stay). Requires overload
  /// protection.
  FaultPlan& vcstorm(sim::Time at, int sessions,
                     sim::Time duration = sim::Time::zero());
  FaultPlan& custom(sim::Time at, std::function<void()> action,
                    std::string label = "custom");

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Earliest activation time across all events (zero if empty).
  [[nodiscard]] sim::Time first_fault_time() const;
  /// Latest instant at which any event is still perturbing the network
  /// (end of the last outage/burst/flap window; zero if empty).
  [[nodiscard]] sim::Time last_recovery_time() const;

  /// Parses a compact text spec; throws std::invalid_argument with a
  /// precise message on malformed input. Grammar (events split on ';',
  /// fields on ':', times in ms, targets `trunkN` / `destN`, sessions by
  /// index):
  ///
  ///   outage:<target>:<at_ms>:<dur_ms>
  ///   flap:<target>:<at_ms>:<cycles>:<down_ms>:<up_ms>
  ///   burst:<target>:<at_ms>:<dur_ms>:<p_good_bad>:<p_bad_good>:<loss_bad>
  ///   rmloss:<target>:<at_ms>:<dur_ms>:<drop_p>[:<corrupt_p>]
  ///   rm_blackhole:<target>:<at_ms>:<dur_ms>[:<drop_p>]
  ///   restart:<target>:<at_ms>[:warm|cold]
  ///   leave:<session>:<at_ms>
  ///   join:<session>:<at_ms>
  ///   misbehave:<session>:<at_ms>:<greedy|forge|partial>[:<compliance>]
  ///   comply:<session>:<at_ms>
  ///   memsqueeze:<at_ms>:<frac>[:<dur_ms>]
  ///   vcstorm:<at_ms>:<n>[:<dur_ms>]
  ///
  /// Example: "outage:trunk0:250:50;restart:trunk0:450;leave:1:500"
  ///
  /// Two events of the same kind, at the same instant, on the same
  /// target are rejected as duplicates (the position names the repeat).
  ///
  /// Error messages name the offending token, the event's index and its
  /// character position in the spec, e.g.
  ///   fault plan: bad time 'x' in event 2 ("outage:trunk0:x:50") at
  ///   character 17
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// The whole plan in the text grammar, ';'-separated in event order;
  /// parse(to_spec()) reconstructs the plan exactly (times serialize as
  /// exact decimal milliseconds — integer nanoseconds have at most six
  /// fractional ms digits). Throws std::logic_error if the plan contains
  /// kCustom events.
  [[nodiscard]] std::string to_spec() const;

 private:
  /// Parses one ';'-free grammar item and appends it (parse()'s body;
  /// errors get the event's index/position added by the caller).
  void parse_event(const std::string& item);
};

[[nodiscard]] inline bool operator==(const FaultPlan& a, const FaultPlan& b) {
  return a.events == b.events;
}
[[nodiscard]] inline bool operator!=(const FaultPlan& a, const FaultPlan& b) {
  return !(a == b);
}

}  // namespace phantom::fault
