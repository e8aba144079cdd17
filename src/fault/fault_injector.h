// Executes a FaultPlan against a running ABR network.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "atm/link.h"
#include "fault/fault_plan.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "topo/abr_network.h"

namespace phantom::fault {

/// One fault transition that actually happened, for the experiment
/// report (faults are experiment inputs; the report records them next to
/// the measured outputs so a run is self-describing).
struct AppliedFault {
  sim::Time time;
  std::string description;
};

/// Resolves a FaultPlan's targets against a topo::AbrNetwork and
/// schedules every fault transition on the simulator clock.
///
/// Target semantics:
///  * trunk  — both directions of the duplex trunk (outage/burst/RM
///             faults sever data *and* the returning RM feedback);
///             rm_blackhole hits only the reverse port (backward RM
///             cells); restart hits the forward port's controller.
///  * dest   — the link feeding the destination endpoint; rm_blackhole
///             hits the endpoint's access link (where turned BRM cells
///             head back); restart hits the destination port's
///             controller.
///  * session — ABR source churn (leave deactivates; join re-activates,
///             or starts a source that was never started).
///
/// The injector must outlive the run: the scheduled events call back
/// into it to record the applied-fault log.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, topo::AbrNetwork& net)
      : sim_{&sim}, net_{&net} {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// When session-churn targets are validated. Link/controller targets
  /// are always resolved at apply() time (scheduling needs the link
  /// handles); session indices can additionally be checked only when the
  /// event fires, which lets churn-heavy generated plans be applied to a
  /// network that is still adding sessions.
  enum class ValidateMode {
    kEager,         ///< whole plan checked before anything is scheduled
    kAtActivation,  ///< kLeave/kJoin indices checked when the event fires
  };

  /// Schedules every event in `plan`. In kEager mode (the default) all
  /// targets are validated up front and a bad one throws
  /// std::out_of_range before anything is scheduled. In either mode a
  /// kLeave/kJoin whose session index is out of range *when it fires*
  /// throws a descriptive std::out_of_range out of the run — a stale
  /// index fails cleanly instead of corrupting the churn bookkeeping.
  /// Events in the simulator's past throw std::logic_error (the
  /// hardened scheduler refuses past-time scheduling).
  void apply(const FaultPlan& plan, ValidateMode mode = ValidateMode::kEager);

  /// Chronological log of the transitions that have fired so far.
  [[nodiscard]] const std::vector<AppliedFault>& log() const { return log_; }

  /// Attaches the structured event log: apply() records a kFaultArmed
  /// per scheduled event, and every transition records kFaultFired or
  /// kFaultRecovered (the closing half of a windowed fault) alongside
  /// the text log above. The log must outlive the injector's events.
  void set_event_log(obs::EventLog* log) { tap_ = obs::Tap{log}; }

  /// Registers the injector's counters into `reg` under `prefix`:
  /// transitions armed (scheduled by apply) and transitions fired.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

 private:
  /// Which half of a fault a record() call reports: the disturbance
  /// itself, or the transition that undoes it.
  enum class Phase { kFire, kRecover };
  /// Link-state blocks a link-level fault acts on (1 for dest targets,
  /// 2 for trunks — forward + reverse).
  [[nodiscard]] std::vector<std::shared_ptr<atm::LinkState>> links_of(
      FaultTarget t) const;
  /// Feedback-direction hops only, for kRmBlackhole: a trunk's reverse
  /// port (which carries nothing but returning RM cells) or the
  /// destination endpoint's access link (where turned BRM cells start
  /// their trip home). Data and forward RM cells never cross these.
  [[nodiscard]] std::vector<std::shared_ptr<atm::LinkState>> reverse_links_of(
      FaultTarget t) const;
  [[nodiscard]] atm::PortController& controller_of(FaultTarget t) const;
  void validate(const FaultEvent& e) const;
  /// Throws std::out_of_range unless session `s` exists right now.
  void check_session_live(std::size_t s, const char* when) const;
  void schedule_event(const FaultEvent& e);
  /// Stores `action` in `armed_` and schedules a pre-bound {this, index}
  /// trampoline to fire it at `at`. Fault closures carry link-handle
  /// vectors and description strings — far beyond the kernel's inline
  /// capture budget — so parking them here keeps every event the kernel
  /// ever sees allocation-free (and the heap-fallback perf counter at
  /// zero) without copying the heavy state per scheduled event.
  void arm(sim::Time at, std::function<void()> action);
  void record(const std::string& description, Phase phase = Phase::kFire);

  sim::Simulator* sim_;
  topo::AbrNetwork* net_;
  std::vector<AppliedFault> log_;
  std::vector<std::function<void()>> armed_;  // one entry per transition
  obs::Tap tap_;
};

}  // namespace phantom::fault
