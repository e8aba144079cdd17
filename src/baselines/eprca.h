// EPRCA — Enhanced Proportional Rate Control Algorithm [Rob94].
//
// The first of the three constant-space ATM Forum baselines the paper's
// §5 compares Phantom against. EPRCA learns the fair share (MACR) as an
// exponential average of the CCR values stamped on *forward* RM cells,
// and detects congestion from queue-length thresholds:
//
//   on FRM:  MACR += AV * (CCR - MACR)                  (AV = 1/16)
//   on BRM:  very congested (q > DQT):  ER = min(ER, MRF*MACR), CI = 1
//            congested (q > QT) and CCR > DPF*MACR:
//                                       ER = min(ER, ERF*MACR)
//
// Weaknesses the paper points at (and our benches reproduce): the
// queue-threshold congestion signal arrives late, producing rate
// oscillations and queue spikes; the indiscriminate CI in the very-
// congested state "beats down" long-path sessions [BdJ94].
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "atm/port_controller.h"
#include "sim/simulator.h"

namespace phantom::baselines {

struct EprcaConfig {
  double averaging = 1.0 / 16;   ///< AV: MACR exponential-average gain
  double dpf = 7.0 / 8;          ///< Down-Pressure Factor
  double erf = 15.0 / 16;        ///< Explicit-Reduction Factor
  double mrf = 1.0 / 4;          ///< Major-Reduction Factor (very congested)
  std::size_t queue_threshold = 100;       ///< QT (cells)
  std::size_t very_congested_threshold = 500;  ///< DQT (cells)
  sim::Rate initial_macr = sim::Rate::mbps(8.5);

  void validate() const {
    if (averaging <= 0 || averaging > 1)
      throw std::invalid_argument{"averaging must be in (0,1]"};
    if (dpf <= 0 || dpf > 1) throw std::invalid_argument{"dpf must be in (0,1]"};
    if (erf <= 0 || erf > 1) throw std::invalid_argument{"erf must be in (0,1]"};
    if (mrf <= 0 || mrf > 1) throw std::invalid_argument{"mrf must be in (0,1]"};
    if (very_congested_threshold <= queue_threshold)
      throw std::invalid_argument{"DQT must exceed QT"};
  }
};

class EprcaController final : public atm::PortController {
 public:
  EprcaController(sim::Simulator& sim, sim::Rate link_capacity,
                  EprcaConfig config = {});

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
  [[nodiscard]] std::string name() const override { return "eprca"; }

  /// Base surface plus the CCR-averaged MACR.
  void register_metrics(obs::Registry& reg,
                        const std::string& prefix) override {
    PortController::register_metrics(reg, prefix);
    reg.add_gauge({prefix + ".macr_mbps", "eprca.macr_mbps",
                   obs::MetricType::kGauge, "Mb/s", "EprcaController",
                   "exponential average of FRM-stamped CCRs"},
                  [this] { return macr_ / 1e6; });
  }

 private:
  sim::Simulator* sim_;
  EprcaConfig config_;
  double link_bps_;
  double macr_;
  atm::WarmStartWindow warm_;
};

}  // namespace phantom::baselines
