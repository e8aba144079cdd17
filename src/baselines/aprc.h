// APRC — Adaptive Proportional Rate Control [ST94].
//
// Siu and Tzeng's modification of EPRCA: congestion is declared not by
// the queue *length* but by the rate at which the queue is *changing*
// ("intelligent congestion indication") — a growing queue means the port
// is congested even if it is still short. The very-congested state
// remains a length threshold (the paper quotes 300 cells).
//
// The paper's critique (`bench_fig_baselines` reproduces it): because
// growth is measured over a short window, noise in the arrival process
// flips the congestion signal, and in some scenarios the queue still
// exceeds the very-congested threshold, triggering the same
// indiscriminate beat-down as EPRCA.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "atm/port_controller.h"
#include "sim/simulator.h"

namespace phantom::baselines {

struct AprcConfig {
  double averaging = 1.0 / 16;  ///< AV for the MACR exponential average
  double dpf = 7.0 / 8;         ///< Down-Pressure Factor
  double erf = 15.0 / 16;       ///< Explicit-Reduction Factor
  double mrf = 1.0 / 4;         ///< Major-Reduction Factor
  /// Queue-growth sampling period; congestion = queue grew since the
  /// last sample.
  sim::Time growth_interval = sim::Time::ms(1);
  std::size_t very_congested_threshold = 300;  ///< cells [ST94 via paper]
  sim::Rate initial_macr = sim::Rate::mbps(8.5);

  void validate() const {
    if (averaging <= 0 || averaging > 1)
      throw std::invalid_argument{"averaging must be in (0,1]"};
    if (dpf <= 0 || dpf > 1) throw std::invalid_argument{"dpf must be in (0,1]"};
    if (erf <= 0 || erf > 1) throw std::invalid_argument{"erf must be in (0,1]"};
    if (mrf <= 0 || mrf > 1) throw std::invalid_argument{"mrf must be in (0,1]"};
    if (growth_interval <= sim::Time::zero())
      throw std::invalid_argument{"growth_interval must be positive"};
  }
};

class AprcController final : public atm::PortController {
 public:
  AprcController(sim::Simulator& sim, sim::Rate link_capacity,
                 AprcConfig config = {});

  void on_cell_accepted(const atm::Cell& cell, std::size_t queue_len) override;
  void on_forward_rm(atm::Cell& cell, std::size_t queue_len) override;
  void on_backward_rm(atm::Cell& cell, std::size_t queue_len) override;
  void reset() override;
  void warm_restart() override;
  [[nodiscard]] const atm::WarmStartAudit* warm_audit() const override {
    return &warm_.audit();
  }

  [[nodiscard]] sim::Rate fair_share() const override {
    return sim::Rate::bps(macr_);
  }
  [[nodiscard]] std::string name() const override { return "aprc"; }
  [[nodiscard]] bool congested() const { return congested_; }

  /// Base surface plus the MACR estimate and queue-growth verdict.
  void register_metrics(obs::Registry& reg,
                        const std::string& prefix) override {
    PortController::register_metrics(reg, prefix);
    reg.add_gauge({prefix + ".macr_mbps", "aprc.macr_mbps",
                   obs::MetricType::kGauge, "Mb/s", "AprcController",
                   "exponential average of FRM-stamped CCRs"},
                  [this] { return macr_ / 1e6; });
    reg.add_gauge({prefix + ".congested", "aprc.congested",
                   obs::MetricType::kGauge, "bool", "AprcController",
                   "1 while the queue grew over the last growth interval"},
                  [this] { return congested_ ? 1.0 : 0.0; });
  }

 private:
  void on_growth_tick();

  sim::Simulator* sim_;
  AprcConfig config_;
  double link_bps_;
  double macr_;
  std::size_t last_queue_len_ = 0;
  std::size_t current_queue_len_ = 0;
  bool congested_ = false;
  atm::WarmStartWindow warm_;
};

}  // namespace phantom::baselines
