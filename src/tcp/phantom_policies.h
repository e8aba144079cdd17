// The paper's four Phantom mechanisms for TCP routers (§4):
// Selective Discard (Fig. 18), Selective RED, Selective Source Quench,
// and EFCI marking. All compare the rate stamped in the packet header
// (CR) against `utilization_factor * MACR`, where MACR is the same
// constant-space residual-bandwidth filter the ATM controller uses.
#pragma once

#include <memory>

#include "core/phantom_config.h"
#include "core/residual_filter.h"
#include "sim/simulator.h"
#include "tcp/red_policy.h"
#include "tcp/queue_policy.h"

namespace phantom::tcp {

/// Default Phantom configuration for TCP routers. Two deliberate
/// differences from the ATM defaults, both traceable to the paper's TCP
/// section: the measurement target is the *full* capacity (u = 1.0) and
/// the mechanisms compare CR against utilization_factor * MACR with
/// utilization_factor = 5 (the value the paper's figure captions quote).
/// The algebra: flows pinned at thr = uf * (C - n*thr) sit at
/// thr = uf*C/(1 + n*uf) — for uf = 5 that is the per-flow fair share
/// with 95%+ utilization at n >= 4, while MACR itself stays a *small
/// positive residual* C/(1 + n*uf), so the fair-share signal never
/// collapses when greedy TCP saturates the link.
[[nodiscard]] core::PhantomConfig tcp_default_phantom_config();

/// The paper's "utilization factor" for the TCP mechanisms (Fig. 9/11
/// captions): thresholds are utilization_factor * MACR.
inline constexpr double kTcpUtilizationFactor = 5.0;

/// Adapts a PhantomConfig to TCP timescales: the measurement interval is
/// raised to at least 10 ms (the order of the sources' CR measurement
/// window and their RTTs — a 1 ms MACR would outrun the signal it
/// controls and cause synchronized boom-bust cycles), and the MACR floor
/// is raised to 2% of the target rate so the over-rate test never
/// degenerates into "drop everything". See DESIGN.md "Substitutions".
[[nodiscard]] core::PhantomConfig tcp_tuned(core::PhantomConfig config,
                                            sim::Rate link_capacity);

/// Shared measurement half of every mechanism: counts offered wire bits
/// per Δt and runs the ResidualFilter. One instance per router port.
/// Applies tcp_tuned() to the supplied config.
class PhantomRateMeter {
 public:
  PhantomRateMeter(sim::Simulator& sim, sim::Rate link_capacity,
                   core::PhantomConfig config);

  PhantomRateMeter(const PhantomRateMeter&) = delete;
  PhantomRateMeter& operator=(const PhantomRateMeter&) = delete;

  /// Counts an arriving packet (dropped or not) as offered load.
  void count(const Packet& packet) { bits_ += packet.wire_bits(); }

  [[nodiscard]] sim::Rate macr() const { return filter_.macr(); }

 private:
  void on_interval();

  sim::Simulator* sim_;
  core::PhantomConfig config_;
  sim::Time interval_;
  core::ResidualFilter filter_;
  std::int64_t bits_ = 0;
};

/// Cap on the per-packet policing drop probability (DiscardMode::kPolice).
inline constexpr double kMaxPoliceDropProbability = 0.15;

/// Fraction of the buffer that must be occupied before Selective
/// Discard polices at all. Below the gate there is no congestion to
/// avoid and dropping would only sacrifice utilization; above it, the
/// over-rate sessions (CR > uf * MACR) bear all the pressure. The gate
/// is what lets the mechanism "avoid congestion even in drop tail
/// routers" while leaving well-behaved sessions untouched.
inline constexpr double kDiscardQueueGate = 0.25;

/// How Selective Discard treats an over-rate packet.
enum class DiscardMode {
  /// Drop with probability min(1 - threshold/CR, p_max). Over-rate TCP
  /// flows then see isolated drops (fast retransmit, window halving)
  /// instead of whole-window wipe-outs; the fluid-level behaviour — only
  /// over-rate sessions are penalized, and persistently over-rate flows
  /// are pushed back under the threshold — matches the paper's
  /// description. The probability cap is the RED lesson [FJ93]: small
  /// per-packet drop rates steer TCP; large ones synchronize timeouts.
  /// Default; see DESIGN.md "Substitutions".
  kPolice,
  /// Drop every over-rate packet, the literal reading of Fig. 18. With
  /// windowed Reno sources and a CR that is remeasured only every
  /// cr_interval, this wipes whole windows and collapses goodput into
  /// RTO cycles; kept for the ablation bench.
  kStrict,
};

/// Selective Discard [paper Fig. 18]:
///     on packet arrival:
///         if queue full:                drop            (drop tail)
///         elif CR > uf * MACR:          drop            (selective)
///         else:                         enqueue
/// Keeps drop-tail routers uncongested and unbiased without touching the
/// TCP window machinery at the end hosts.
class SelectiveDiscardPolicy final : public QueuePolicy {
 public:
  SelectiveDiscardPolicy(sim::Simulator& sim, sim::Rate link_capacity,
                         double utilization_factor = kTcpUtilizationFactor,
                         core::PhantomConfig config = tcp_default_phantom_config(),
                         DiscardMode mode = DiscardMode::kPolice);

  Verdict on_arrival(const Packet& packet, std::size_t queue_len,
                     std::size_t queue_limit) override;
  [[nodiscard]] sim::Rate fair_share() const override { return meter_.macr(); }
  [[nodiscard]] std::string name() const override { return "selective-discard"; }
  [[nodiscard]] const PhantomRateMeter& meter() const { return meter_; }
  [[nodiscard]] std::uint64_t selective_drops() const { return drops_; }

 private:
  sim::Simulator* sim_;
  PhantomRateMeter meter_;
  double factor_;
  DiscardMode mode_;
  std::uint64_t drops_ = 0;
};

/// Selective RED: standard RED, but only packets whose CR exceeds
/// uf * MACR are eligible for early drop. Under-share sessions are never
/// penalized, removing RED's residual unfairness.
class SelectiveRedPolicy final : public RedPolicy {
 public:
  SelectiveRedPolicy(sim::Simulator& sim, sim::Rate link_capacity,
                     double utilization_factor = kTcpUtilizationFactor,
                     core::PhantomConfig config = tcp_default_phantom_config(),
                     RedConfig red = {});

  Verdict on_arrival(const Packet& packet, std::size_t queue_len,
                     std::size_t queue_limit) override;
  [[nodiscard]] sim::Rate fair_share() const override { return meter_.macr(); }
  [[nodiscard]] std::string name() const override { return "selective-red"; }
  [[nodiscard]] const PhantomRateMeter& meter() const { return meter_; }

 protected:
  [[nodiscard]] bool eligible(const Packet& packet) const override;

 private:
  PhantomRateMeter meter_;
  double factor_;
};

/// Selective Source Quench: packets are never dropped by the mechanism;
/// instead the router asks for an ICMP Source Quench to be sent to any
/// source running above uf * MACR. Quenches are rate-limited per port
/// (constant space — no per-flow bookkeeping) because SQ traffic itself
/// consumes scarce reverse bandwidth [BP87].
class SelectiveQuenchPolicy final : public QueuePolicy {
 public:
  SelectiveQuenchPolicy(sim::Simulator& sim, sim::Rate link_capacity,
                        double utilization_factor = kTcpUtilizationFactor,
                        sim::Time min_quench_gap = sim::Time::ms(1),
                        core::PhantomConfig config = tcp_default_phantom_config());

  Verdict on_arrival(const Packet& packet, std::size_t queue_len,
                     std::size_t queue_limit) override;
  [[nodiscard]] sim::Rate fair_share() const override { return meter_.macr(); }
  [[nodiscard]] std::string name() const override { return "selective-quench"; }
  [[nodiscard]] std::uint64_t quenches_sent() const { return quenches_; }

 private:
  sim::Simulator* sim_;
  PhantomRateMeter meter_;
  double factor_;
  sim::Time min_gap_;
  sim::Time last_quench_ = sim::Time::ns(-1'000'000'000);
  std::uint64_t quenches_ = 0;
};

/// EFCI marking: data packets of over-rate sessions get the EFCI bit set
/// in their IP header; the receiver echoes it on ACKs and the (modified)
/// source refrains from increasing its window while the bit is observed
/// (the paper's Fig. 11 mechanism).
class EfciMarkPolicy final : public QueuePolicy {
 public:
  EfciMarkPolicy(sim::Simulator& sim, sim::Rate link_capacity,
                 double utilization_factor = kTcpUtilizationFactor,
                 core::PhantomConfig config = tcp_default_phantom_config());

  Verdict on_arrival(const Packet& packet, std::size_t queue_len,
                     std::size_t queue_limit) override;
  [[nodiscard]] sim::Rate fair_share() const override { return meter_.macr(); }
  [[nodiscard]] std::string name() const override { return "efci-mark"; }
  [[nodiscard]] std::uint64_t marks() const { return marks_; }

 private:
  PhantomRateMeter meter_;
  double factor_;
  std::uint64_t marks_ = 0;
};

}  // namespace phantom::tcp
