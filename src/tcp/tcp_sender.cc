#include "tcp/tcp_sender.h"

#include <algorithm>
#include <cassert>

namespace phantom::tcp {

TcpSender::TcpSender(sim::Simulator& sim, int flow, RenoConfig config,
                     Emitter emit)
    : sim_{&sim},
      flow_{flow},
      config_{config},
      emit_{std::move(emit)},
      cwnd_{config.initial_cwnd_mss * static_cast<double>(config.mss)},
      ssthresh_{config.initial_ssthresh},
      rto_{config.rto_initial},
      rto_backoff_base_{config.rto_initial},
      rto_timer_{sim, sim::bind_member<&TcpSender::on_timeout>(this)} {
  config_.validate();
  if (!emit_) throw std::invalid_argument{"TcpSender needs an emitter"};
}

void TcpSender::start(sim::Time at) {
  assert(!started_ && "start() may only be called once");
  started_ = true;
  sim_->schedule_at(at, [this] {
    try_send();
    on_cr_tick();
  });
}

void TcpSender::try_send() {
  // Send while the congestion window has room for a full segment.
  // (Greedy source; receiver window assumed ample, as in the paper's
  // simulations.)
  while (static_cast<double>(flight_size() + config_.mss) <= cwnd_) {
    send_segment(snd_nxt_);
    snd_nxt_ += config_.mss;
  }
}

void TcpSender::send_segment(std::int64_t seq) {
  Packet p = Packet::data(flow_, seq, config_.mss);
  p.header = config_.header;
  p.cr = cr_;
  p.timestamp = sim_->now();
  ++sent_;
  emit_(p);
  if (!rto_timer_.armed()) rto_timer_.arm(rto_);
}

void TcpSender::receive_packet(const Packet& packet) {
  if (packet.flow != flow_) return;
  switch (packet.kind) {
    case PacketKind::kAck:
      on_ack(packet);
      break;
    case PacketKind::kSourceQuench:
      on_source_quench();
      break;
    case PacketKind::kData:
      break;  // a sender never consumes data packets
  }
}

void TcpSender::on_ack(const Packet& packet) {
  if (packet.ack > snd_una_) {
    // RTT sample from the echoed timestamp (Karn's problem avoided: the
    // echo is the timestamp of the segment that generated the ACK).
    sample_rtt(sim_->now() - packet.timestamp);
    on_new_ack(packet.ack, packet.ack_efci);
  } else {
    on_dup_ack();
  }
}

void TcpSender::on_new_ack(std::int64_t ack, bool efci) {
  snd_una_ = ack;
  dup_acks_ = 0;
  backoff_ = 0;

  if (in_recovery_) {
    // The first new ACK ends fast recovery [Ste94 §21.7].
    in_recovery_ = false;
    on_recovery_exit();
  } else {
    on_ack_growth(efci && config_.react_to_efci);
  }

  if (flight_size() > 0) {
    rto_timer_.arm(rto_);  // restart for the oldest outstanding segment
  } else {
    rto_timer_.disarm();
  }
  try_send();
}

void TcpSender::on_dup_ack() {
  ++dup_acks_;
  if (in_recovery_) {
    set_cwnd(cwnd_ + mss());  // window inflation per extra dup ACK
    try_send();
    return;
  }
  if (dup_acks_ == 3) {
    send_segment(snd_una_);
    ++fast_rtx_;
    in_recovery_ = on_fast_retransmit();
    rto_timer_.arm(rto_);
    try_send();
  }
}

std::int64_t TcpSender::half_flight() const {
  return std::max(flight_size() / 2,
                  static_cast<std::int64_t>(2 * config_.mss));
}

void TcpSender::on_source_quench() {
  ++quenches_;
  if (!config_.react_to_quench) return;  // misbehaving sender: ignore
  // React at most once per RTT: routers may emit several quenches
  // before the first one takes effect.
  const sim::Time guard = rtt_seeded_ ? srtt_ : config_.rto_initial;
  if (last_quench_reaction_ >= sim::Time::zero() &&
      sim_->now() - last_quench_reaction_ < guard) {
    return;
  }
  last_quench_reaction_ = sim_->now();
  // 4.4BSD behaviour [Ste94]: collapse to one segment and slow-start
  // back; ssthresh is not changed.
  in_recovery_ = false;
  dup_acks_ = 0;
  set_cwnd(mss());
}

void TcpSender::on_timeout() {
  ++timeouts_;
  ssthresh_ = half_flight();
  set_cwnd(mss());
  dup_acks_ = 0;
  in_recovery_ = false;
  // Go-back-N from the last cumulative ACK; retransmissions are paced
  // by the returning ACK clock (ns-2-style simplification of Reno's
  // timeout recovery).
  snd_nxt_ = snd_una_;
  // Karn: exponential backoff, and do not sample RTT from retransmits
  // (timestamps make samples safe again on fresh segments).
  ++backoff_;
  rto_ = std::min(config_.rto_max,
                  rto_backoff_base_ * (std::int64_t{1} << std::min(backoff_, 6)));
  try_send();
  if (flight_size() > 0) rto_timer_.arm(rto_);
}

void TcpSender::sample_rtt(sim::Time m) {
  if (m <= sim::Time::zero()) return;
  if (!rtt_seeded_) {
    srtt_ = m;
    rttvar_ = m / 2;
    rtt_seeded_ = true;
  } else {
    const sim::Time err = m >= srtt_ ? m - srtt_ : srtt_ - m;
    rttvar_ = rttvar_ * 3 / 4 + err / 4;
    srtt_ = srtt_ * 7 / 8 + m / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, config_.rto_min, config_.rto_max);
  rto_backoff_base_ = rto_;
  on_rtt_measurement(m);
}

void TcpSender::on_cr_tick() {
  // CR = payload acknowledged in the last interval / interval (§4.3).
  const double bytes = static_cast<double>(snd_una_ - cr_mark_);
  cr_mark_ = snd_una_;
  cr_ = sim::Rate::bps(bytes * 8.0 / config_.cr_interval.seconds());
  sim_->schedule(config_.cr_interval, [this] { on_cr_tick(); });
}

void TcpSender::set_cwnd(double bytes) {
  cwnd_ = std::max(bytes, mss());
}

}  // namespace phantom::tcp
