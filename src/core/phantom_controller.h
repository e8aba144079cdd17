// Phantom as an ATM switch port controller.
#pragma once

#include <cstdint>
#include <string>

#include "atm/port_controller.h"
#include "core/phantom_config.h"
#include "core/residual_filter.h"
#include "sim/simulator.h"

namespace phantom::core {

/// The paper's algorithm attached to one switch output port:
///
///  * every Δt it measures the offered load (cells that arrived for this
///    port, whether queued or dropped) and feeds the ResidualFilter;
///  * every backward RM cell of a VC routed through this port gets
///    ER := min(ER, MACR) — the phantom's rate *is* the allowed rate;
///  * optionally (efci_queue_threshold > 0) data cells are EFCI-marked
///    while the queue is long, enabling the binary-feedback variant the
///    paper's TCP section uses.
///
/// Per-port state: the filter's two doubles + one interval counter —
/// independent of the number of VCs, as required for the paper's
/// "constant space" class. MACR curves come from a caller-owned series
/// attached with set_rate_trace().
class PhantomController final : public atm::PortController {
 public:
  /// Starts the Δt interval timer immediately.
  PhantomController(sim::Simulator& sim, sim::Rate link_capacity,
                    PhantomConfig config = {});

  void on_cell_accepted(const atm::Cell& cell, std::size_t queue_len) override;
  void on_cell_dropped(const atm::Cell& cell) override;
  void on_forward_rm(atm::Cell& cell, std::size_t queue_len) override;
  void on_backward_rm(atm::Cell& cell, std::size_t queue_len) override;
  void reset() override;
  void warm_restart() override;
  [[nodiscard]] const atm::WarmStartAudit* warm_audit() const override {
    return &warm_.audit();
  }
  [[nodiscard]] bool mark_efci(std::size_t queue_len) const override;

  [[nodiscard]] sim::Rate fair_share() const override { return filter_.macr(); }
  [[nodiscard]] std::string name() const override { return "phantom"; }

  [[nodiscard]] std::uint64_t intervals_elapsed() const { return intervals_; }

  /// Base surface plus the MACR estimate and interval count.
  void register_metrics(obs::Registry& reg,
                        const std::string& prefix) override {
    PortController::register_metrics(reg, prefix);
    reg.add_gauge({prefix + ".macr_mbps", "phantom.macr_mbps",
                   obs::MetricType::kGauge, "Mb/s", "PhantomController",
                   "residual-filter MACR (the phantom session's rate)"},
                  [this] { return filter_.macr().mbits_per_sec(); });
    reg.add_counter({prefix + ".intervals", "phantom.intervals",
                     obs::MetricType::kCounter, "intervals",
                     "PhantomController",
                     "measurement intervals elapsed (filter updates)"},
                    [this] { return intervals_; });
  }

 private:
  void on_interval();
  void close_warm_window();

  bool over_subscribed_ = false;  // binary mode: last interval's verdict
  atm::WarmStartWindow warm_;

  sim::Simulator* sim_;
  PhantomConfig config_;
  ResidualFilter filter_;
  std::uint64_t arrived_cells_ = 0;  // accepted + dropped in this interval
  std::uint64_t intervals_ = 0;
};

}  // namespace phantom::core
