// Output-queued ATM switch with per-VC routing.
#pragma once

#include <memory>
#include <vector>

#include "atm/buffer_manager.h"
#include "atm/cell.h"
#include "atm/output_port.h"
#include "atm/policer.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/id_table.h"
#include "sim/simulator.h"

namespace phantom::atm {

/// Connection Admission Control: whether a new VC may be set up through
/// this switch. ER feedback shares bandwidth among sessions already
/// admitted; nothing in the data path bounds how many sessions get
/// admitted in the first place, and each admitted VC costs switch memory
/// (routes, policer GCRA state, MCR reservation) no matter how little it
/// sends. CAC closes that hole: setup is refused — with a per-reason
/// counter — rather than letting the switch over-commit and fail later.
struct CacConfig {
  /// Fraction of a forward port's link rate bookable as the sum of
  /// admitted MCRs. Below 1.0 so admitted minimum rates stay deliverable
  /// alongside RM-cell overhead and guaranteed-class traffic.
  double mcr_utilization = 0.9;
  /// Buffer headroom each admitted VC must be able to claim: a setup is
  /// refused when admitted_vcs * per_vc_buffer_cells would exceed the
  /// switch's cell-memory budget.
  std::size_t per_vc_buffer_cells = 16;
  /// Hard bound on the VC table (routes, policer state, reaper
  /// timestamps are all per-VC).
  std::size_t max_vcs = 4096;

  void validate() const;
};

/// Why a VC was admitted or refused at setup.
enum class AdmitVerdict {
  kAdmitted,
  kRefusedVcLimit,         ///< VC table at max_vcs
  kRefusedMcrBudget,       ///< MCR sum would exceed the port's booking limit
  kRefusedBufferHeadroom,  ///< cell memory cannot back another VC
  kRefusedPressure,        ///< degradation ladder: switch already shedding
};

[[nodiscard]] std::string to_string(AdmitVerdict v);

/// Per-reason admission counters. Only ever incremented — the invariant
/// monitor checks refusals are monotone (a squeeze must not "un-refuse").
struct CacCounters {
  std::uint64_t admitted = 0;
  std::uint64_t refused_vc_limit = 0;
  std::uint64_t refused_mcr_budget = 0;
  std::uint64_t refused_buffer = 0;
  std::uint64_t refused_pressure = 0;

  [[nodiscard]] std::uint64_t refused_total() const {
    return refused_vc_limit + refused_mcr_budget + refused_buffer +
           refused_pressure;
  }
};

/// Stale-VC reaper policy: a VC silent for `timeout` is declared dead
/// by the next periodic sweep. "Silent" means no cell of any kind — a
/// beaten-down but live session still turns RM cells well inside any
/// sane timeout (the Trm ticker bounds its FRM spacing by 100 ms).
struct ReaperConfig {
  sim::Time timeout = sim::Time::ms(100);  ///< silence that means death
  sim::Time period = sim::Time::ms(25);    ///< sweep cadence

  void validate() const;
};

/// A switch is a set of output ports plus a VC routing table. Forward
/// cells (data / FRM) of a VC exit via the VC's forward port; backward
/// RM cells exit via the VC's backward port *after* the forward port's
/// controller has written its feedback into them — this models the
/// standard ABR arrangement where the congestion state of the forward
/// direction is conveyed on the returning RM cells [Sat96].
class Switch final : public CellSink {
 public:
  explicit Switch(sim::Simulator& sim, std::string name = "switch")
      : sim_{&sim}, name_{std::move(name)} {}

  /// Adds an output port; returns its index.
  std::size_t add_port(sim::Rate rate, std::size_t queue_limit, Link link,
                       std::unique_ptr<PortController> controller,
                       QueueDiscipline discipline = QueueDiscipline::kFifo);

  /// Routes a VC: forward cells to `forward_port`, backward RM cells to
  /// `backward_port` (both indices from add_port). A VC may be routed at
  /// most once per switch. VC ids index dense per-VC tables: they must
  /// be non-negative and small (topo::AbrNetwork numbers VCs from 0).
  void route_vc(int vc, std::size_t forward_port, std::size_t backward_port);

  void receive_cell(Cell cell) override;

  [[nodiscard]] OutputPort& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] const OutputPort& port(std::size_t i) const {
    return *ports_.at(i);
  }
  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Cells that arrived for a VC with no route (counts a modelling bug).
  [[nodiscard]] std::uint64_t unrouted_cells() const { return unrouted_; }

  /// Attaches a UPC policer at this switch's ingress: every forward
  /// cell is GCRA-checked against its forward port's fair-share
  /// estimate before it may enter the port queue. Replaces any policer
  /// already attached.
  void enable_policing(PolicerConfig config);

  /// The attached policer, or nullptr when policing is off.
  [[nodiscard]] Policer* policer() { return policer_.get(); }
  [[nodiscard]] const Policer* policer() const { return policer_.get(); }

  /// RM cells whose ER/CCR fields were clamped on ingest (negative,
  /// NaN, or above the forward link's capacity) — forged or corrupted
  /// feedback the switch refused to propagate into controller state.
  [[nodiscard]] std::uint64_t rm_cells_sanitized() const {
    return rm_sanitized_;
  }

  /// Starts the stale-VC reaper: every `period` the switch sweeps its
  /// per-VC activity timestamps and evicts VCs silent for longer than
  /// `timeout` — policer GCRA state goes, and both the forward and the
  /// backward port controllers get a vc_expired() so session-count
  /// state releases the dead VC's share. The route stays: a reused VC
  /// id simply re-registers on its next cell, with a fresh contract.
  void enable_reaping(ReaperConfig config);

  /// Explicit teardown of one VC's dynamic state (the reaper's eviction
  /// path, callable directly when the caller *knows* the session is
  /// gone rather than inferring it from silence). Returns whether any
  /// state existed.
  bool evict_vc(int vc);

  /// VCs evicted so far (reaper sweeps + explicit evict_vc calls).
  [[nodiscard]] std::uint64_t vcs_reaped() const { return vcs_reaped_; }
  /// VCs with a live activity timestamp (seen and not yet evicted).
  [[nodiscard]] std::size_t active_vcs() const { return last_activity_.size(); }

  /// Bounds this switch's cell memory: all ports (present and future)
  /// share one BufferManager budget with frame-aware discard. Must be
  /// enabled before any cell is queued.
  void enable_buffer_management(BufferConfig config);
  [[nodiscard]] BufferManager* buffer_manager() { return buffer_mgr_.get(); }
  [[nodiscard]] const BufferManager* buffer_manager() const {
    return buffer_mgr_.get();
  }

  /// Arms Connection Admission Control: subsequent admit_vc calls are
  /// checked against the MCR booking limit, buffer headroom, the VC
  /// table bound, and the degradation ladder.
  void enable_admission_control(CacConfig config);

  /// Asks to admit VC `vc` with minimum rate `mcr` exiting via
  /// `forward_port`. kAdmitted books the MCR (and registers MCR
  /// protection with the buffer manager); any refusal increments the
  /// matching counter and leaves no state behind. With CAC off, setup
  /// is always admitted (and still registered, so MCR protection and
  /// release-on-evict work for grandfathered sessions).
  AdmitVerdict admit_vc(int vc, sim::Rate mcr, std::size_t forward_port);

  /// Registers an already-established VC without consulting (or
  /// counting against) the admission checks: grandfathering for
  /// sessions that predate enable_admission_control. Still books the
  /// MCR so later setups see the true commitment.
  void force_admit_vc(int vc, sim::Rate mcr, std::size_t forward_port);

  /// Rollback half of multi-hop admission: a VC admitted here but
  /// refused at a later hop releases its booking without counting as an
  /// eviction (it never carried a cell).
  void cancel_admission(int vc) {
    release_admission(vc);
    if (buffer_mgr_) buffer_mgr_->evict_vc(vc);
  }

  /// Attaches the structured event log to this switch and every port
  /// (present and future): RM round-trips, policer verdicts, CAC
  /// refusals, enqueues/drops and controller rate updates get recorded.
  /// `node` is this switch's index in the trace's track layout.
  void set_event_log(obs::EventLog* log, int node);

  /// Registers this switch's metrics — CAC counters, reaper/sanitizer
  /// totals, and the policer's, buffer manager's, every port's and
  /// every controller's surface — under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

  [[nodiscard]] const CacCounters& cac_counters() const {
    return cac_counters_;
  }
  /// MCR currently booked on a forward port (sum over admitted VCs).
  [[nodiscard]] sim::Rate mcr_booked(std::size_t port) const {
    return mcr_booked_.at(port);
  }
  /// VCs currently holding an admission record.
  [[nodiscard]] std::size_t admitted_vcs() const { return admitted_.size(); }

 private:
  void on_reap_tick();

  /// Clamps hostile RM field values before any controller sees them.
  void sanitize_rm(Cell& cell, sim::Rate link_rate);

  /// Records an RM transit event (ER/CCR as stamped, plus the forward
  /// port controller's fair share at that instant).
  void record_rm_event(obs::EventKind kind, const Cell& cell,
                       std::size_t forward_port);
  /// Records a policer verdict (detail: 1 = tag, 2 = drop).
  void record_policer_event(const Cell& cell, std::uint8_t verdict);
  /// Records a CAC refusal (detail: AdmitVerdict code).
  void record_cac_refusal(int vc, sim::Rate mcr, AdmitVerdict verdict);

  struct Route {
    std::size_t forward_port;
    std::size_t backward_port;
  };

  sim::Simulator* sim_;
  std::string name_;
  /// Books `mcr` for an established VC (shared by admit and force-admit).
  void record_admission(int vc, sim::Rate mcr, std::size_t forward_port);
  /// Releases a VC's admission record and MCR booking, if any.
  bool release_admission(int vc);

  std::vector<std::unique_ptr<OutputPort>> ports_;
  sim::IdTable<Route> routes_;
  std::uint64_t unrouted_ = 0;
  std::unique_ptr<BufferManager> buffer_mgr_;
  bool cac_enabled_ = false;
  CacConfig cac_config_;
  CacCounters cac_counters_;
  struct Admission {
    sim::Rate mcr;
    std::size_t forward_port;
  };
  sim::IdTable<Admission> admitted_;
  std::vector<sim::Rate> mcr_booked_;  // per forward port
  std::unique_ptr<Policer> policer_;
  std::uint64_t rm_sanitized_ = 0;
  bool reaping_ = false;
  ReaperConfig reaper_config_;
  sim::IdTable<sim::Time> last_activity_;
  std::uint64_t vcs_reaped_ = 0;
  obs::Tap tap_;
};

}  // namespace phantom::atm
