#include "tcp/phantom_policies.h"

#include <algorithm>
#include <stdexcept>

namespace phantom::tcp {

core::PhantomConfig tcp_default_phantom_config() {
  core::PhantomConfig config;
  config.utilization = 1.0;
  config.interval = sim::Time::ms(10);
  return config;
}

core::PhantomConfig tcp_tuned(core::PhantomConfig config,
                              sim::Rate link_capacity) {
  config.interval = std::max(config.interval, sim::Time::ms(10));
  config.min_macr =
      std::max(config.min_macr, link_capacity * (0.02 * config.utilization));
  return config;
}

PhantomRateMeter::PhantomRateMeter(sim::Simulator& sim,
                                   sim::Rate link_capacity,
                                   core::PhantomConfig raw_config)
    : sim_{&sim},
      config_{tcp_tuned(raw_config, link_capacity)},
      interval_{config_.interval},
      filter_{link_capacity, config_} {
  sim_->schedule(interval_, [this] { on_interval(); });
}

void PhantomRateMeter::on_interval() {
  const sim::Rate offered =
      sim::Rate::bps(static_cast<double>(bits_) / interval_.seconds());
  bits_ = 0;
  filter_.update(offered);
  sim_->schedule(interval_, [this] { on_interval(); });
}

namespace {
void check_factor(double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument{"utilization_factor must be positive"};
  }
}
}  // namespace

SelectiveDiscardPolicy::SelectiveDiscardPolicy(sim::Simulator& sim,
                                               sim::Rate link_capacity,
                                               double utilization_factor,
                                               core::PhantomConfig config,
                                               DiscardMode mode)
    : sim_{&sim},
      meter_{sim, link_capacity, config},
      factor_{utilization_factor},
      mode_{mode} {
  check_factor(factor_);
}

Verdict SelectiveDiscardPolicy::on_arrival(const Packet& packet,
                                           std::size_t queue_len,
                                           std::size_t queue_limit) {
  const double threshold = factor_ * meter_.macr().bits_per_sec();
  const bool congested =
      static_cast<double>(queue_len) >=
      kDiscardQueueGate * static_cast<double>(queue_limit);
  if (congested && packet.cr.bits_per_sec() > threshold) {
    const double p = std::min(1.0 - threshold / packet.cr.bits_per_sec(),
                              kMaxPoliceDropProbability);
    const bool drop =
        mode_ == DiscardMode::kStrict || sim_->rng().bernoulli(p);
    if (drop) {
      ++drops_;
      return Verdict::discard();
    }
  }
  // Unlike the ATM controller (which counts drops so overload reads as
  // strongly negative residual), the TCP meter counts *admitted* load
  // only: what the policer discards never occupies the link, and with
  // greedy TCP the offered load saturates permanently — counting it
  // would pin MACR to its floor and destroy the fair-share signal.
  meter_.count(packet);
  return Verdict::accept();
}

SelectiveRedPolicy::SelectiveRedPolicy(sim::Simulator& sim,
                                       sim::Rate link_capacity,
                                       double utilization_factor,
                                       core::PhantomConfig config,
                                       RedConfig red)
    : RedPolicy{sim, red},
      meter_{sim, link_capacity, config},
      factor_{utilization_factor} {
  check_factor(factor_);
}

Verdict SelectiveRedPolicy::on_arrival(const Packet& packet,
                                       std::size_t queue_len,
                                       std::size_t queue_limit) {
  const Verdict v = RedPolicy::on_arrival(packet, queue_len, queue_limit);
  if (!v.drop) meter_.count(packet);  // admitted load only, as in Discard
  return v;
}

bool SelectiveRedPolicy::eligible(const Packet& packet) const {
  return packet.cr.bits_per_sec() > factor_ * meter_.macr().bits_per_sec();
}

SelectiveQuenchPolicy::SelectiveQuenchPolicy(sim::Simulator& sim,
                                             sim::Rate link_capacity,
                                             double utilization_factor,
                                             sim::Time min_quench_gap,
                                             core::PhantomConfig config)
    : sim_{&sim},
      meter_{sim, link_capacity, config},
      factor_{utilization_factor},
      min_gap_{min_quench_gap} {
  check_factor(factor_);
}

Verdict SelectiveQuenchPolicy::on_arrival(const Packet& packet, std::size_t,
                                          std::size_t) {
  meter_.count(packet);
  Verdict v = Verdict::accept();
  if (packet.cr.bits_per_sec() > factor_ * meter_.macr().bits_per_sec() &&
      sim_->now() - last_quench_ >= min_gap_) {
    last_quench_ = sim_->now();
    ++quenches_;
    v.send_quench = true;
  }
  return v;
}

EfciMarkPolicy::EfciMarkPolicy(sim::Simulator& sim, sim::Rate link_capacity,
                               double utilization_factor,
                               core::PhantomConfig config)
    : meter_{sim, link_capacity, config}, factor_{utilization_factor} {
  check_factor(factor_);
}

Verdict EfciMarkPolicy::on_arrival(const Packet& packet, std::size_t,
                                   std::size_t) {
  meter_.count(packet);
  Verdict v = Verdict::accept();
  if (packet.cr.bits_per_sec() > factor_ * meter_.macr().bits_per_sec()) {
    ++marks_;
    v.mark_efci = true;
  }
  return v;
}

}  // namespace phantom::tcp
