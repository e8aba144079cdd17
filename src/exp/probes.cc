#include "exp/probes.h"

#include "atm/cell.h"

namespace phantom::exp {

void GoodputProbe::mark() {
  t0_ = sim_->now();
  base_.clear();
  for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
    base_.push_back(net_->delivered_cells(s));
  }
}

std::vector<double> GoodputProbe::rates_mbps() const {
  std::vector<double> out;
  const double secs = (sim_->now() - t0_).seconds();
  for (std::size_t s = 0; s < net_->num_sessions(); ++s) {
    const double cells =
        static_cast<double>(net_->delivered_cells(s) - base_[s]);
    out.push_back(secs > 0 ? cells * atm::kCellBits / secs / 1e6 : 0.0);
  }
  return out;
}

double GoodputProbe::total_mbps() const {
  double total = 0.0;
  for (const double r : rates_mbps()) total += r;
  return total;
}

QueueSampler::QueueSampler(sim::Simulator& sim, const atm::OutputPort& port,
                           sim::Time period)
    : sim_{&sim}, port_{&port}, period_{period} {
  sim_->schedule(sim::Time::zero(), [this] { tick(); });
}

void QueueSampler::tick() {
  trace_.record(sim_->now(), static_cast<double>(port_->queue_length()));
  sim_->schedule(period_, [this] { tick(); });
}

FairShareSampler::FairShareSampler(sim::Simulator& sim,
                                   const atm::PortController& controller,
                                   sim::Time period)
    : sim_{&sim}, controller_{&controller}, period_{period} {
  sim_->schedule(sim::Time::zero(), [this] { tick(); });
}

void FairShareSampler::tick() {
  trace_.record(sim_->now(), controller_->fair_share().bits_per_sec());
  sim_->schedule(period_, [this] { tick(); });
}

}  // namespace phantom::exp
