// TCP Vegas sender [BP95], the delay-based end-host algorithm the
// paper's §4 discusses at length.
//
// Vegas compares the throughput the window *should* achieve at the
// propagation RTT against what it actually achieves:
//
//   diff = cwnd * (1 - BaseRTT / RTT)      (bytes queued in the network)
//
// and, once per RTT: grows the window while diff < alpha segments,
// shrinks it while diff > beta segments, and holds otherwise. Slow
// start doubles only every other RTT and exits when diff exceeds gamma.
//
// The paper's critique — reproduced by `bench_fig_vegas` — is that
// nothing equalizes two Vegas connections: each is happy with *its own*
// alpha..beta band of queued bytes, so whoever grabbed a larger window
// first keeps it, and flows with different BaseRTT estimates settle at
// persistently different rates. Phantom's router mechanisms fix this
// from the network side.
#pragma once

#include "tcp/tcp_sender.h"

namespace phantom::tcp {

struct VegasConfig {
  RenoConfig base;
  double alpha_segments = 1.0;  ///< grow below this many queued segments
  double beta_segments = 3.0;   ///< shrink above this many
  double gamma_segments = 1.0;  ///< leave slow start above this many

  void validate() const {
    base.validate();
    if (alpha_segments <= 0 || beta_segments <= alpha_segments)
      throw std::invalid_argument{"need 0 < alpha < beta"};
    if (gamma_segments <= 0)
      throw std::invalid_argument{"gamma must be positive"};
  }
};

class VegasSource final : public TcpSender {
 public:
  VegasSource(sim::Simulator& sim, int flow, VegasConfig config, Emitter emit)
      : TcpSender{sim, flow, config.base, std::move(emit)},
        vegas_{config} {
    vegas_.validate();
  }

  [[nodiscard]] std::string name() const override { return "vegas"; }
  [[nodiscard]] sim::Time base_rtt() const { return base_rtt_; }

 private:
  void on_rtt_measurement(sim::Time rtt) override {
    if (base_rtt_.is_zero() || rtt < base_rtt_) base_rtt_ = rtt;
    last_rtt_ = rtt;
  }

  void on_ack_growth(bool efci_suppressed) override;

  bool on_fast_retransmit() override {
    // Vegas decrease [BP95]: the loss is a sign of real congestion, but
    // the window is cut to 3/4 (not 1/2) because Vegas was already
    // holding the queue short.
    set_ssthresh(half_flight());
    set_cwnd(cwnd_bytes() * 0.75);
    return true;
  }

  void on_recovery_exit() override {}  // cwnd already adjusted on entry

  VegasConfig vegas_;
  sim::Time base_rtt_ = sim::Time::zero();
  sim::Time last_rtt_ = sim::Time::zero();
  std::int64_t rtt_mark_ = 0;     // snd_una at the start of this RTT epoch
  bool grow_this_epoch_ = false;  // slow start doubles every other RTT
  double diff_bytes_ = 0.0;
};

}  // namespace phantom::tcp
