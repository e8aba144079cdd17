// ERICA-style per-VC explicit-rate controller [JKV94, JKVG95, JKG+95].
//
// The paper classifies switch algorithms into constant-space schemes
// (Phantom, EPRCA, APRC, CAPC) and schemes whose state grows with the
// number of connections ("its advanced versions ERICA/ERICA+ maintain a
// counter per session"). This controller represents the second class:
// it tracks each VC's current cell rate and computes
//
//   every Δt:  z = input_rate / (u * C)          (load factor)
//              fair_share = u * C / N            (N = active VCs)
//   on BRM:    ER = min(ER, max(fair_share, CCR_vc / z))
//
// giving each session the exact fair share (no phantom penalty) at the
// cost of O(VCs) memory — the trade-off `bench_tab_comparison_space`
// quantifies against Phantom.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "atm/port_controller.h"
#include "sim/simulator.h"

namespace phantom::baselines {

struct EricaConfig {
  sim::Time interval = sim::Time::ms(1);
  double utilization = 0.95;
  sim::Rate initial_fair_share = sim::Rate::mbps(8.5);
  /// VCs silent for this many intervals stop counting as active.
  int activity_timeout_intervals = 50;

  void validate() const {
    if (interval <= sim::Time::zero())
      throw std::invalid_argument{"interval must be positive"};
    if (utilization <= 0 || utilization > 1)
      throw std::invalid_argument{"utilization must be in (0,1]"};
    if (activity_timeout_intervals < 1)
      throw std::invalid_argument{"activity timeout must be >= 1 interval"};
  }
};

class EricaController final : public atm::PortController {
 public:
  EricaController(sim::Simulator& sim, sim::Rate link_capacity,
                  EricaConfig config = {});

  void on_cell_accepted(const atm::Cell& cell, std::size_t queue_len) override;
  void on_cell_dropped(const atm::Cell& cell) override;
  void on_forward_rm(atm::Cell& cell, std::size_t queue_len) override;
  void on_backward_rm(atm::Cell& cell, std::size_t queue_len) override;
  void reset() override;
  void warm_restart() override;
  [[nodiscard]] const atm::WarmStartAudit* warm_audit() const override {
    return &warm_.audit();
  }
  /// Releases a reaped VC's table entry immediately — the reaper's
  /// deadline is authoritative, no need to wait out the controller's
  /// own activity_timeout_intervals.
  void vc_expired(int vc) override;

  [[nodiscard]] sim::Rate fair_share() const override {
    return sim::Rate::bps(fair_share_);
  }
  [[nodiscard]] std::string name() const override { return "erica"; }
  [[nodiscard]] std::size_t tracked_vcs() const { return vcs_.size(); }

  /// Base surface plus the load factor and the per-VC table size (the
  /// O(connections) state the constant-space class avoids).
  void register_metrics(obs::Registry& reg,
                        const std::string& prefix) override {
    PortController::register_metrics(reg, prefix);
    reg.add_gauge({prefix + ".load_factor", "erica.load_factor",
                   obs::MetricType::kGauge, "ratio", "EricaController",
                   "z = input rate / (utilization * capacity)"},
                  [this] { return load_factor_; });
    reg.add_gauge({prefix + ".tracked_vcs", "erica.tracked_vcs",
                   obs::MetricType::kGauge, "vcs", "EricaController",
                   "VCs in the per-VC CCR table"},
                  [this] { return static_cast<double>(vcs_.size()); });
  }

 private:
  struct VcState {
    double ccr_bps = 0.0;
    std::uint64_t last_seen_interval = 0;
  };

  void on_interval();
  void close_warm_window();

  sim::Simulator* sim_;
  EricaConfig config_;
  double target_bps_;  // u * C
  double fair_share_;
  double load_factor_ = 0.0;
  std::uint64_t arrived_cells_ = 0;
  std::uint64_t interval_index_ = 0;
  std::unordered_map<int, VcState> vcs_;  // O(connections) — by design
  atm::WarmStartWindow warm_;
};

}  // namespace phantom::baselines
