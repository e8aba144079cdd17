// Per-VC usage parameter control (UPC): GCRA conformance + enforcement.
//
// Phantom — like every ER-based ABR scheme — steers sources by *asking*
// them to slow down; nothing in the data path stops a source that
// ignores the ER field. The ATM Forum TM spec pairs ER control with
// policing at the network ingress for exactly this reason. This policer
// runs the Generic Cell Rate Algorithm (virtual-scheduling form,
// I.371 / TM 4.0) per VC, but against a *moving* reference rate: the
// forward port's current fair-share estimate (Phantom's MACR) times a
// headroom factor, rather than a static PCR contract. A compliant
// source tracking the advertised ER is conformant by construction; a
// source sending faster than its fair share for longer than the
// tolerance τ is not.
#pragma once

#include <cstdint>
#include <string>

#include "atm/cell.h"
#include "obs/metrics.h"
#include "sim/id_table.h"
#include "sim/time.h"

namespace phantom::atm {

/// What to do with a non-conforming cell.
enum class PolicingAction {
  kMonitor,  ///< count violations only (detection without enforcement)
  kTag,      ///< set CLP; tagged cells are dropped first under pressure
  kDrop,     ///< discard at ingress, before the cell consumes a queue slot
};

[[nodiscard]] std::string to_string(PolicingAction a);

struct PolicerConfig {
  PolicingAction action = PolicingAction::kMonitor;

  /// The conformance rate is `headroom * fair_share`: the slack keeps
  /// honest sources (whose ACR overshoots transiently during additive
  /// increase, and whose MACR reference itself moves each measurement
  /// interval) out of the violation counters. 1.5 tolerates a full
  /// additive-increase excursion between two MACR updates.
  double headroom = 1.5;

  /// Never police below this rate: sources are entitled to ramp from
  /// ICR even while the fair-share estimate is still settling.
  sim::Rate floor = sim::Rate::mbps(8.5);

  /// GCRA limit τ: how far ahead of its theoretical arrival time a cell
  /// may arrive. Two Phantom measurement intervals (2 * Δt = 2 ms)
  /// cover the reference-rate staleness plus source-side burstiness.
  sim::Time tolerance = sim::Time::ms(2);
};

/// GCRA (virtual scheduling) conformance checker over the VCs crossing
/// one switch. Unlike the flow-control algorithms, a policer is *meant*
/// to keep per-VC state — UPC is an ingress function, where per-VC
/// tables are standard practice, and it is exactly the state Phantom's
/// constant-space controller cannot afford.
class Policer {
 public:
  enum class Verdict { kPass, kTag, kDrop };

  struct VcStats {
    std::uint64_t conforming = 0;
    std::uint64_t nonconforming = 0;
    std::uint64_t tagged = 0;
    std::uint64_t dropped = 0;
  };

  explicit Policer(PolicerConfig config = {}) : config_{config} {}

  /// Checks one forward cell against the GCRA at the current reference
  /// rate `fair_share` (the forward port's estimate; re-read per cell so
  /// the contract tracks the moving MACR). High-priority (CBR/VBR)
  /// cells, backward RM cells, and ports with no estimate (fair_share
  /// zero) are never policed. Updates the conformance state and the
  /// counters; the caller applies the verdict (tag the cell / drop it).
  Verdict check(const Cell& cell, sim::Rate fair_share, sim::Time now);

  [[nodiscard]] const PolicerConfig& config() const { return config_; }

  /// Evicts one VC's GCRA state (TAT and per-VC counters): the stale-VC
  /// reaper's half of session teardown. Without this, every VC ever
  /// policed leaks a table entry forever, and — worse — a VC id reused
  /// by a new session inherits the dead session's TAT and starts its
  /// contract already in debt. Aggregate totals are unaffected. Returns
  /// whether the VC had state to evict.
  bool evict_vc(int vc);

  /// VCs evicted so far (reaper sweeps + explicit teardowns).
  [[nodiscard]] std::uint64_t vcs_evicted() const { return evicted_; }
  /// VCs currently holding GCRA state.
  [[nodiscard]] std::size_t tracked_vcs() const { return vcs_.size(); }

  /// Per-VC counters; zeros for a VC never seen.
  [[nodiscard]] VcStats vc_stats(int vc) const;
  [[nodiscard]] std::uint64_t cells_checked() const {
    return total_.conforming + total_.nonconforming;
  }
  [[nodiscard]] std::uint64_t cells_conforming() const {
    return total_.conforming;
  }
  [[nodiscard]] std::uint64_t cells_nonconforming() const {
    return total_.nonconforming;
  }
  [[nodiscard]] std::uint64_t cells_tagged() const { return total_.tagged; }
  [[nodiscard]] std::uint64_t cells_dropped() const { return total_.dropped; }

  /// Fraction of checked cells found non-conforming (0 if none checked).
  [[nodiscard]] double violation_rate() const;
  /// Same, for one VC — the per-session detection signal.
  [[nodiscard]] double violation_rate(int vc) const;

  /// Registers the aggregate policing surface under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix);

 private:
  struct VcState {
    sim::Time tat;  ///< GCRA theoretical arrival time
    VcStats stats;
  };

  PolicerConfig config_;
  sim::IdTable<VcState> vcs_;
  VcStats total_;
  std::uint64_t evicted_ = 0;
};

}  // namespace phantom::atm
