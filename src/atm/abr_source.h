// ABR source end system: paced cell transmission + rate adaptation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "atm/abr_params.h"
#include "atm/cell.h"
#include "atm/link.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace phantom::atm {

/// How a source treats the network's rate feedback. Everything except
/// kCompliant models a misbehaving end system the policing layer must
/// contain (Phantom itself, like all ER-based ABR control, has no
/// defense of its own against a source that simply ignores the ER
/// field).
enum class SourceBehavior {
  kCompliant,  ///< TM 4.0 behaviour (the default)
  kGreedy,     ///< ignores ER/CI entirely and transmits at PCR
  kForging,    ///< greedy, plus forged RM cells: understated CCR,
               ///< inflated ER, and self-addressed backward RM cells
  kPartial,    ///< obeys ER scaled by a compliance factor in [0, 1]
};

[[nodiscard]] std::string to_string(SourceBehavior b);

/// Source end system per the TM 4.0 subset the paper's simulations use:
///
///  * transmits cells paced at ACR while active; every Nrm-th cell is an
///    in-rate forward RM cell carrying CCR = ACR and ER = PCR;
///  * on a backward RM cell: multiplicative decrease by Nrm/RDF if CI is
///    set, otherwise additive increase by AIR*Nrm; then ACR is clamped
///    into [max(MCR, TCR), min(ER, PCR)] — the ER clamp is how explicit-
///    rate switches (Phantom and the baselines) actually steer sources;
///  * use-it-or-lose-it: a source that restarts after being idle longer
///    than TOF * Nrm / ACR falls back to ICR [Sat96, "TOF"];
///  * feedback-loss backoff: once `crm` FRMs have gone unanswered, each
///    further FRM cuts ACR by `cdf` (floored at ICR/MCR), and an ACR
///    with no backward RM for ADTF snaps to ICR — so a source degrades
///    gracefully through an outage instead of blasting at a stale rate,
///    and recovers through the normal increase path when feedback
///    resumes (TM 4.0 source rules 5 and ADTF).
///
/// On/off workloads drive `set_active`; greedy sources just start once.
///
/// Lazy pacing. A send files no kernel event: the source keeps its next
/// send instant and the cells it has sent that have not yet reached the
/// far end of its access link, and files one event at a time, the
/// arrival of its next cell there. That cell's key is drawn when the
/// previous cell arrives, or when a cell sent by an event of its own
/// (start, restart, an out-of-rate FRM) finds nothing filed ahead of
/// it. The work of a send (the cell, its counters, the decay at an FRM,
/// the next instant) runs in send order at that arrival, or first thing
/// in any call that changes or reads the source (catch_up()). A send at
/// instant t takes effect after every other event at t: a callback at t
/// sees only the sends before t, and outside a run the sends up to
/// now() count once nothing at now() is pending. Running a due send
/// draws no key and no random number, so a read never changes a run.
/// The access link therefore must carry no fault model (checked at each
/// send); its counters include the cells the source holds.
class AbrSource final : public CellSink {
 public:
  AbrSource(sim::Simulator& sim, int vc, AbrParams params, Link to_network);
  ~AbrSource() override;

  AbrSource(const AbrSource&) = delete;
  AbrSource& operator=(const AbrSource&) = delete;

  /// Begins transmitting at `at` (absolute time).
  void start(sim::Time at);

  /// On/off control; re-activation applies use-it-or-lose-it.
  void set_active(bool active);

  /// Caps the source's sending rate below ACR: a non-greedy application
  /// that only ever has `demand` worth of traffic. The control loop
  /// still runs (RM cells flow at the effective rate); the unclaimed
  /// share is redistributed by the switches. Rate::max-like default =
  /// greedy.
  void set_demand(sim::Rate demand);

  /// Switches the source's feedback behaviour mid-run (the chaos
  /// `misbehave`/`comply` faults). Defecting to kGreedy/kForging jumps
  /// ACR straight to PCR; returning to kCompliant re-enters at ICR (a
  /// reformed defector must not keep its ill-gotten rate).
  /// `compliance` is only meaningful for kPartial: 1 = fully compliant,
  /// 0 = ignores ER entirely.
  void set_behavior(SourceBehavior behavior, double compliance = 1.0);

  [[nodiscard]] SourceBehavior behavior() const { return behavior_; }
  [[nodiscard]] double compliance() const { return compliance_; }

  /// Receives backward RM cells addressed to this source's VC.
  void receive_cell(Cell cell) override;

  [[nodiscard]] int vc() const { return vc_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] const AbrParams& params() const { return params_; }
  /// Access link into the network (shared fault state, see LinkState).
  [[nodiscard]] Link& link() { return link_; }
  [[nodiscard]] const Link& link() const { return link_; }
  [[nodiscard]] sim::Rate acr() const {
    catch_up();
    return acr_;
  }
  /// The rate cells actually leave at: min(ACR, demand).
  [[nodiscard]] sim::Rate effective_rate() const {
    catch_up();
    return rate();
  }
  [[nodiscard]] std::uint64_t data_cells_sent() const {
    catch_up();
    return data_sent_;
  }
  [[nodiscard]] std::uint64_t rm_cells_sent() const {
    catch_up();
    return rm_sent_;
  }
  [[nodiscard]] std::uint64_t brm_cells_received() const { return brm_received_; }

  /// Forward RM cells sent since the last backward RM was received —
  /// the TM 4.0 missing-RM counter driving the Crm/CDF decrease.
  [[nodiscard]] std::uint64_t frms_since_brm() const {
    catch_up();
    return frm_since_brm_;
  }

  /// The "no stale-rate transmission" envelope: the largest ACR the
  /// feedback-loss protocol permits this source *right now*. PCR (i.e.
  /// unconstrained) while feedback is live, inactive, or fewer than Crm
  /// FRMs are unacknowledged; otherwise the last granted ER shrunk by
  /// CDF per overdue FRM, floored at max(ICR, MCR); and max(ICR, MCR)
  /// outright once the ADTF backstop (plus two Trm of FRM-spacing
  /// slack) has expired. The InvariantMonitor flags any source above
  /// this — including one whose decay was ablated off.
  [[nodiscard]] sim::Rate stale_rate_envelope() const;
  /// Self-addressed forged backward RM cells emitted while kForging.
  [[nodiscard]] std::uint64_t forged_brm_sent() const {
    catch_up();
    return forged_brm_sent_;
  }

  /// Attaches the structured event log: every ACR change records a
  /// kSourceRate event on this source's VC track, stamped with the
  /// instant of the change (a decay made in a send that ran late is
  /// stamped with the send's instant).
  void set_event_log(obs::EventLog* log) {
    catch_up();
    tap_ = obs::Tap{log};
  }

  /// Attaches a caller-owned series (nullptr detaches) that gets ACR in
  /// bits/s at start and at every change after it (the paper's
  /// "sessions' allowed rate" curves).
  void set_acr_trace(sim::Trace* trace) {
    catch_up();
    acr_trace_ = trace;
  }

  /// Registers this source's send/feedback counters and ACR gauge
  /// under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

  /// Runs the sends that are due: inside a callback at t those before
  /// t, outside a run those up to now() once nothing at now() is
  /// pending. Every reader and every call that changes what a send does
  /// runs it first, and so does a read of the access link's counters.
  /// Const because it changes nothing a caller could tell apart from the
  /// sends having run at their instants.
  void catch_up() const;

 private:
  /// The rate cells leave at, without catching up.
  [[nodiscard]] sim::Rate rate() const { return std::min(acr_, demand_); }
  void resume();
  void send_due();
  [[nodiscard]] Cell forward_rm(sim::Time at);
  void put(Cell cell, sim::Time at);
  void file_next();
  void arrive();
  void arrive_last();
  void hand_over();
  void on_trm_check();
  void pre_frm_update(sim::Time at);
  void apply_backward_rm(const Cell& cell);
  void set_acr(sim::Rate r, sim::Time at);
  [[nodiscard]] Cell make_forward_rm() const;
  [[nodiscard]] Cell forged_backward_rm();

  sim::Simulator* sim_;
  int vc_;
  AbrParams params_;
  Link link_;

  sim::Rate acr_;
  sim::Rate demand_ = sim::Rate::bps(1e18);  // effectively unbounded
  /// The cell time at rate(), set with every change of ACR or demand.
  sim::Time interval_;
  bool active_ = false;
  bool started_ = false;
  bool pacing_ = false;            // next_send_ is a send to come
  sim::Time next_send_ = sim::Time::zero();
  /// Cells sent that have not reached the far end of the access link,
  /// in send order.
  sim::Ring<Cell> in_flight_;
  /// The filed arrival: the front of in_flight_, or the next send's
  /// cell while in_flight_ is empty.
  sim::EventId arrival_;
  std::uint64_t cells_since_rm_ = 0;
  std::uint32_t frame_id_ = 0;   // AAL5 frame being emitted
  int frame_pos_ = 0;            // data cells of frame_id_ sent so far
  std::uint64_t data_sent_ = 0;
  std::uint64_t rm_sent_ = 0;
  std::uint64_t brm_received_ = 0;
  sim::Time last_send_ = sim::Time::zero();
  sim::Time last_rm_sent_ = sim::Time::zero();
  std::uint64_t frm_since_brm_ = 0;
  sim::Time last_brm_time_ = sim::Time::zero();
  sim::Rate last_granted_er_;
  SourceBehavior behavior_ = SourceBehavior::kCompliant;
  double compliance_ = 1.0;        // kPartial only: 1 = obeys ER fully
  std::uint64_t forged_brm_sent_ = 0;
  sim::Trace* acr_trace_ = nullptr;
  obs::Tap tap_;
};

}  // namespace phantom::atm
