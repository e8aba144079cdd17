// The seam between the switching substrate and a flow-control algorithm.
//
// Every algorithm the paper studies — Phantom itself and the EPRCA /
// APRC / CAPC baselines of §5 — is a *per-output-port, constant-space*
// controller. The switch notifies the controller about cell-level events
// on its port and consults it when a backward RM cell for a VC routed
// through that port passes by (that is where ER/CI feedback is written).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "atm/cell.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace phantom::atm {

/// Audit record of a controller's warm-start path: when a restart is
/// "warm", the controller rebuilds its rate estimate from the first
/// window of observed RM traffic instead of reinstalling its boot
/// constant, and this records exactly what it rebuilt from.
struct WarmStartAudit {
  std::uint64_t warm_restarts = 0;  ///< warm_restart() calls so far
  bool window_open = false;         ///< still collecting the first window
  std::uint64_t ccr_samples = 0;    ///< FRM CCRs sampled in the last window
  double seeded_bps = 0.0;          ///< estimate installed at window close
};

/// The sampling window behind WarmStartAudit. A controller's
/// warm_restart() calls begin(); its on_forward_rm feeds every CCR to
/// sample(); close() yields the mean observed CCR as the warm seed when
/// the window ends — at the controller's first measurement tick after
/// RM traffic was seen (ripe()) or after kMaxSamples FRMs, whichever
/// comes first.
class WarmStartWindow {
 public:
  static constexpr std::uint64_t kMaxSamples = 32;

  void begin() {
    ++audit_.warm_restarts;
    audit_.window_open = true;
    audit_.ccr_samples = 0;
    audit_.seeded_bps = 0.0;
    sum_bps_ = 0.0;
  }

  [[nodiscard]] bool open() const { return audit_.window_open; }

  /// Open and holding at least one sample — ready for a measurement
  /// tick to close it. A tick that fires before any FRM arrived must
  /// NOT close the window (an interval-driven controller's first tick
  /// can beat the first RM cell by orders of magnitude, and closing
  /// empty would silently turn every warm restart into a cold one).
  [[nodiscard]] bool ripe() const {
    return audit_.window_open && audit_.ccr_samples > 0;
  }

  /// Feeds one FRM's CCR; returns true when the window just filled and
  /// the caller should close() immediately.
  bool sample(double ccr_bps) {
    if (!audit_.window_open) return false;
    sum_bps_ += ccr_bps;
    ++audit_.ccr_samples;
    return audit_.ccr_samples >= kMaxSamples;
  }

  /// Ends the window: the mean observed CCR, or nothing when no RM
  /// traffic was seen at all (the caller stays on its cold boot value).
  std::optional<double> close() {
    audit_.window_open = false;
    if (audit_.ccr_samples == 0) return std::nullopt;
    return sum_bps_ / static_cast<double>(audit_.ccr_samples);
  }

  void record_seed(double bps) { audit_.seeded_bps = bps; }
  [[nodiscard]] const WarmStartAudit& audit() const { return audit_; }

 private:
  WarmStartAudit audit_;
  double sum_bps_ = 0.0;
};

/// Flow-control algorithm attached to one switch output port.
///
/// Implementations must use O(1) state (no per-VC tables) to honour the
/// paper's "constant space" class; tests assert sizeof() stays small.
class PortController {
 public:
  virtual ~PortController() = default;

  /// A cell was accepted into the port's queue (queue length includes it).
  virtual void on_cell_accepted(const Cell& cell, std::size_t queue_len) {
    (void)cell;
    (void)queue_len;
  }

  /// A cell arrived but the queue was full.
  virtual void on_cell_dropped(const Cell& cell) { (void)cell; }

  /// A cell finished transmission onto the link.
  virtual void on_cell_transmitted(const Cell& cell) { (void)cell; }

  /// A forward RM cell is transiting this port (EPRCA-family algorithms
  /// learn CCRs here). Called before the cell is queued.
  virtual void on_forward_rm(Cell& cell, std::size_t queue_len) {
    (void)cell;
    (void)queue_len;
  }

  /// A backward RM cell for a VC whose *forward* path uses this port.
  /// This is where the algorithm writes its feedback (reduce `er`, set
  /// `ci`). `queue_len` is the forward port's current queue length.
  virtual void on_backward_rm(Cell& cell, std::size_t queue_len) = 0;

  /// Simulated controller restart: wipe every learned variable back to
  /// its boot value (the fault subsystem's port-controller-restart
  /// fault). Because the algorithms in the paper's constant-space class
  /// keep only O(1) measured state, a restarted controller must relearn
  /// the fair share from measurements alone — the recovery claim the
  /// resilience benches quantify. Default: stateless controller, no-op.
  virtual void reset() {}

  /// Warm variant of reset(): wipe learned state, then rebuild the rate
  /// estimate from the first window of RM traffic observed after the
  /// restart (see WarmStartWindow) instead of cold-booting at the
  /// initial constant — a deployable switch does not forget what the
  /// wire is still telling it. Controllers with no warm path fall back
  /// to a cold reset. warm_audit() exposes what was rebuilt.
  virtual void warm_restart() { reset(); }

  /// The warm-start audit record; nullptr for controllers without a
  /// warm path.
  [[nodiscard]] virtual const WarmStartAudit* warm_audit() const {
    return nullptr;
  }

  /// A VC routed through this port was declared dead (the switch's
  /// stale-VC reaper, or an explicit teardown): whatever per-VC or
  /// session-count state the controller keeps for it must be released
  /// so surviving sessions reclaim the share. Constant-space
  /// controllers have nothing to release; default no-op.
  virtual void vc_expired(int vc) { (void)vc; }

  /// Whether a data cell entering the queue should have EFCI set.
  [[nodiscard]] virtual bool mark_efci(std::size_t queue_len) const {
    (void)queue_len;
    return false;
  }

  /// The algorithm's current fair-share estimate (MACR / ERS) — the
  /// quantity the paper's figures plot. Every change is published
  /// through note_rate_update().
  [[nodiscard]] virtual sim::Rate fair_share() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Attaches the structured event log (see obs::EventLog); the
  /// controller records a kRateUpdate whenever its estimate moves.
  /// `node`/`port` identify the owning switch port in the trace.
  void set_event_log(obs::EventLog* log, int node, int port) {
    tap_ = obs::Tap{log, node, port};
  }

  /// Attaches a caller-owned series (nullptr detaches). It gets the
  /// current estimate at `now`, then one sample in bits/s per change:
  /// the same changes the event log records.
  void set_rate_trace(sim::Trace* trace, sim::Time now) {
    rate_trace_ = trace;
    if (trace != nullptr) trace->record(now, fair_share().bits_per_sec());
  }

  /// Registers this controller's metrics under `prefix`. The base
  /// registers the common surface (fair share, warm restarts);
  /// algorithms override to add their own state (and should call the
  /// base first).
  virtual void register_metrics(obs::Registry& reg,
                                const std::string& prefix) {
    reg.add_gauge({prefix + ".fair_share_mbps", "controller.fair_share_mbps",
                   obs::MetricType::kGauge, "Mb/s", "PortController",
                   "current fair-share estimate (MACR / ERS)"},
                  [this] { return fair_share().mbits_per_sec(); });
    if (warm_audit() != nullptr) {
      reg.add_counter(
          {prefix + ".warm_restarts", "controller.warm_restarts",
           obs::MetricType::kCounter, "restarts", "PortController",
           "warm_restart() invocations"},
          [this] { return warm_audit()->warm_restarts; });
    }
  }

 protected:
  /// Implementations call this whenever fair_share() may have changed:
  /// each recomputation, reset and warm seed.
  void note_rate_update(sim::Time now) {
    if (rate_trace_ != nullptr) {
      rate_trace_->record(now, fair_share().bits_per_sec());
    }
    if (tap_) {
      tap_.record({.time = now,
                   .kind = obs::EventKind::kRateUpdate,
                   .a = fair_share().mbits_per_sec()});
    }
  }

 private:
  sim::Trace* rate_trace_ = nullptr;
  obs::Tap tap_;
};

/// No-op controller for ports that do not run flow control (access
/// links, reverse-direction RM paths).
class NullController final : public PortController {
 public:
  void on_backward_rm(Cell&, std::size_t) override {}
  [[nodiscard]] sim::Rate fair_share() const override { return sim::Rate::zero(); }
  [[nodiscard]] std::string name() const override { return "null"; }
  /// Uncontrolled ports have no estimate worth a metric.
  void register_metrics(obs::Registry&, const std::string&) override {}
};

}  // namespace phantom::atm
