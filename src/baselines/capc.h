// CAPC — Congestion Avoidance using Proportional Control [Bar94].
//
// Barnhart's scheme is the closest relative of Phantom in the paper's
// comparison: both steer on unused capacity. CAPC uses the *fraction* of
// unused capacity (the load factor z) and adjusts its fair-share
// estimate ERS multiplicatively:
//
//   every Δt:  z = offered / (u * C)
//              z < 1:  ERS *= min(ERU, 1 + (1 - z) * Rup)
//              z >= 1: ERS *= max(ERF, 1 - (z - 1) * Rdn)
//   on BRM:    ER = min(ER, ERS); CI = 1 while queue > threshold
//
// whereas Phantom filters the *absolute* residual bandwidth. The paper's
// Fig. 22 finding (reproduced by `bench_fig_baselines`): CAPC converges
// more slowly, with a smaller transient queue, because its per-interval
// rate moves are bounded multiplicative nudges while Phantom takes steps
// proportional to the measured residual.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "atm/port_controller.h"
#include "sim/simulator.h"

namespace phantom::baselines {

struct CapcConfig {
  sim::Time interval = sim::Time::ms(1);  ///< measurement period Δt
  double utilization = 0.9;               ///< target utilization u
  double rate_up = 0.1;                   ///< Rup
  double rate_down = 0.8;                 ///< Rdn
  double eru = 1.5;                       ///< max multiplicative increase
  double erf = 0.5;                       ///< max multiplicative decrease
  std::size_t ci_queue_threshold = 50;    ///< cells; binary feedback kicks in
  sim::Rate initial_ers = sim::Rate::mbps(8.5);
  sim::Rate min_ers = sim::Rate::cells_per_sec(10);

  void validate() const {
    if (interval <= sim::Time::zero())
      throw std::invalid_argument{"interval must be positive"};
    if (utilization <= 0 || utilization > 1)
      throw std::invalid_argument{"utilization must be in (0,1]"};
    if (rate_up <= 0) throw std::invalid_argument{"rate_up must be positive"};
    if (rate_down <= 0) throw std::invalid_argument{"rate_down must be positive"};
    if (eru <= 1) throw std::invalid_argument{"eru must exceed 1"};
    if (erf <= 0 || erf >= 1) throw std::invalid_argument{"erf must be in (0,1)"};
    if (min_ers.bits_per_sec() <= 0)
      throw std::invalid_argument{"min_ers must be positive"};
  }
};

class CapcController final : public atm::PortController {
 public:
  CapcController(sim::Simulator& sim, sim::Rate link_capacity,
                 CapcConfig config = {});

  void on_cell_accepted(const atm::Cell& cell, std::size_t queue_len) override;
  void on_cell_dropped(const atm::Cell& cell) override;
  void on_forward_rm(atm::Cell& cell, std::size_t queue_len) override;
  void on_backward_rm(atm::Cell& cell, std::size_t queue_len) override;
  void reset() override;
  void warm_restart() override;
  [[nodiscard]] const atm::WarmStartAudit* warm_audit() const override {
    return &warm_.audit();
  }

  [[nodiscard]] sim::Rate fair_share() const override {
    return sim::Rate::bps(ers_);
  }
  [[nodiscard]] std::string name() const override { return "capc"; }

  /// Base surface plus the advertised ERS.
  void register_metrics(obs::Registry& reg,
                        const std::string& prefix) override {
    PortController::register_metrics(reg, prefix);
    reg.add_gauge({prefix + ".ers_mbps", "capc.ers_mbps",
                   obs::MetricType::kGauge, "Mb/s", "CapcController",
                   "explicit rate stamped on backward RM cells"},
                  [this] { return ers_ / 1e6; });
  }

 private:
  void on_interval();
  void close_warm_window();

  sim::Simulator* sim_;
  CapcConfig config_;
  double target_bps_;  // u * C
  double ers_;
  std::uint64_t arrived_cells_ = 0;
  atm::WarmStartWindow warm_;
};

}  // namespace phantom::baselines
