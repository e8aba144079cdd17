// Common chassis of window-based TCP senders.
//
// Sequence tracking, segment emission, the Jacobson/Karn retransmission
// timer, duplicate-ACK accounting, CR stamping and Source-Quench /
// EFCI handling are identical across Reno, Tahoe and Vegas; what
// differs is the *window policy* — how cwnd grows on new ACKs and how
// it reacts to loss. Concrete senders override the policy hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/packet.h"

namespace phantom::tcp {

struct RenoConfig {
  std::int64_t mss = 512;          ///< segment payload [paper §4.3]
  std::int64_t header = 40;        ///< TCP/IP header bytes
  double initial_cwnd_mss = 1.0;
  std::int64_t initial_ssthresh = 64 * 1024;  ///< bytes
  sim::Time rto_initial = sim::Time::ms(1000);
  sim::Time rto_min = sim::Time::ms(200);
  sim::Time rto_max = sim::Time::sec(60);
  /// Window for the CR (current rate) measurement stamped into packets.
  sim::Time cr_interval = sim::Time::ms(10);
  /// Honour echoed EFCI bits (required by the EFCI mechanism; harmless
  /// otherwise since plain routers never set the bit).
  bool react_to_efci = true;
  /// Honour Source Quench (collapse cwnd to one segment). A
  /// misbehaving sender turns this off: quenches are still counted,
  /// but the window never reacts — the enforcement experiments measure
  /// what the network can do about such a flow on its own.
  bool react_to_quench = true;

  void validate() const {
    if (mss <= 0) throw std::invalid_argument{"mss must be positive"};
    if (header < 0) throw std::invalid_argument{"header must be >= 0"};
    if (initial_cwnd_mss < 1.0)
      throw std::invalid_argument{"initial cwnd must be >= 1 mss"};
    if (initial_ssthresh < 2 * mss)
      throw std::invalid_argument{"ssthresh must be >= 2 mss"};
    if (rto_min > rto_max || rto_initial < rto_min || rto_initial > rto_max)
      throw std::invalid_argument{"rto bounds inconsistent"};
    if (cr_interval <= sim::Time::zero())
      throw std::invalid_argument{"cr_interval must be positive"};
  }
};

/// Greedy window-based sender base: always has data, sends mss-sized
/// segments. Policy hooks (private virtual, NVI style) define the
/// congestion-control flavour.
class TcpSender : public PacketSink {
 public:
  /// `emit` injects packets into the network (typically the access
  /// port's send()).
  using Emitter = std::function<void(const Packet&)>;

  TcpSender(sim::Simulator& sim, int flow, RenoConfig config, Emitter emit);

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Begins transmitting at absolute time `at`.
  void start(sim::Time at);

  /// Handles ACKs and Source Quench packets for this flow.
  void receive_packet(const Packet& packet) override;

  [[nodiscard]] int flow() const { return flow_; }
  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] std::int64_t ssthresh_bytes() const { return ssthresh_; }
  [[nodiscard]] std::int64_t bytes_acked() const { return snd_una_; }
  [[nodiscard]] sim::Rate current_rate() const { return cr_; }
  [[nodiscard]] sim::Time smoothed_rtt() const { return srtt_; }
  [[nodiscard]] sim::Time rto() const { return rto_; }
  [[nodiscard]] bool in_fast_recovery() const { return in_recovery_; }
  [[nodiscard]] std::uint64_t fast_retransmits() const { return fast_rtx_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t quenches_received() const { return quenches_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  /// The retransmission timer (its wake-ups count the kernel events it
  /// ran without a timeout).
  [[nodiscard]] const sim::Timer& rto_timer() const { return rto_timer_; }

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  // Shared machinery available to policies.
  void set_cwnd(double bytes);
  void try_send();
  void send_segment(std::int64_t seq);
  [[nodiscard]] std::int64_t flight_size() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] const RenoConfig& config() const { return config_; }
  [[nodiscard]] double mss() const {
    return static_cast<double>(config_.mss);
  }
  /// Halved flight size floored at 2 mss — the standard ssthresh update.
  [[nodiscard]] std::int64_t half_flight() const;
  void set_ssthresh(std::int64_t bytes) { ssthresh_ = bytes; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] std::int64_t snd_una() const { return snd_una_; }
  [[nodiscard]] std::int64_t snd_nxt() const { return snd_nxt_; }

 private:
  // -------- policy hooks ------------------------------------------------
  /// New cumulative ACK outside recovery: grow (or not) the window.
  /// `efci_suppressed` is true when the EFCI rule forbids growth.
  virtual void on_ack_growth(bool efci_suppressed) = 0;
  /// Third duplicate ACK: adjust ssthresh/cwnd for the retransmission.
  /// Return true to enter fast recovery (Reno), false to restart in
  /// slow start (Tahoe).
  virtual bool on_fast_retransmit() = 0;
  /// First new ACK while in fast recovery (window deflation).
  virtual void on_recovery_exit() = 0;
  /// A clean RTT measurement arrived (Vegas tracks base RTT here).
  virtual void on_rtt_measurement(sim::Time rtt) { (void)rtt; }
  // -----------------------------------------------------------------------

  void on_ack(const Packet& packet);
  void on_new_ack(std::int64_t ack, bool efci);
  void on_dup_ack();
  void on_source_quench();
  void on_timeout();
  void sample_rtt(sim::Time m);
  void on_cr_tick();

  sim::Simulator* sim_;
  int flow_;
  RenoConfig config_;
  Emitter emit_;

  // Sequence state (bytes; greedy source, data is unbounded).
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;

  // Congestion state shared by all flavours.
  double cwnd_;
  std::int64_t ssthresh_;
  int dup_acks_ = 0;
  bool in_recovery_ = false;

  // RTO machinery [Jac88].
  sim::Time srtt_ = sim::Time::zero();
  sim::Time rttvar_ = sim::Time::zero();
  sim::Time rto_;
  sim::Time rto_backoff_base_;
  int backoff_ = 0;
  sim::Timer rto_timer_;
  bool rtt_seeded_ = false;

  // CR measurement.
  sim::Rate cr_ = sim::Rate::zero();
  std::int64_t cr_mark_ = 0;

  // Source-quench damping.
  sim::Time last_quench_reaction_ = sim::Time::ns(-1);

  bool started_ = false;
  std::uint64_t fast_rtx_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t quenches_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace phantom::tcp
