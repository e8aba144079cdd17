// The benchmark's four workloads and the per-round record they fill.
//
// A round runs a workload's fixed op list once, back to back, on the
// calling thread. Every input is drawn from the workload seed when the
// workload is made, so every round of a run repeats the same
// simulations: deterministic counts come from any one round, and
// timings are medians over rounds.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/factories.h"
#include "timed.h"

namespace phantom::e2ebench {

inline constexpr std::array<exp::Algorithm, 5> kAlgorithms = {
    exp::Algorithm::kPhantom, exp::Algorithm::kEprca, exp::Algorithm::kAprc,
    exp::Algorithm::kCapc, exp::Algorithm::kErica};

/// FNV-1a over 64-bit words: the digest of a round's simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What one round measured. Times are host seconds; everything else is
/// a deterministic count of simulated work.
struct Round {
  // End to end.
  double setup_s = 0.0;
  double wall_s = 0.0;
  double run_cpu_s = 0.0;      ///< thread CPU time of the simulate phase
  std::uint64_t units = 0;     ///< delivered cells / in-order segments
  std::uint64_t events = 0;    ///< kernel events in the simulate phase
  std::uint64_t allocs = 0;    ///< heap allocations in the simulate phase
  std::vector<double> op_ms;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  double fair_err_sum = 0.0;
  int fair_err_ops = 0;
  Digest digest;

  // sim
  std::uint64_t heap_fallbacks = 0;
  std::size_t peak_pending = 0;
  // topo
  double build_s = 0.0;
  std::uint64_t sessions = 0;
  // atm
  std::uint64_t port_cells_tx = 0;
  std::uint64_t rm_cells_sent = 0;
  std::uint64_t data_cells_sent = 0;
  std::uint64_t cells_dropped = 0;
  std::size_t max_queue = 0;
  // tcp
  std::uint64_t tcp_packets_sent = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_fast_retransmits = 0;
  // stats
  double reference_s = 0.0;
  // chaos
  double generate_s = 0.0;
  double baseline_s = 0.0;
  int baselines = 0;
  double trial_s = 0.0;
  double trial_baseline_s = 0.0;  ///< Σ over trials of their spec's baseline time
  int trials = 0;
  // obs
  double snapshot_s = 0.0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t events_recorded = 0;
  double export_s = 0.0;
  // Traced rounds only: time inside the decorators.
  std::array<CallStats, kAlgorithms.size()> ctrl{};
  CallStats policy{};
  // Host speed probes (host_probe.h), one before every op. Their time
  // counts in no other field.
  double probe_wall_s = 0.0;
  double probe_cpu_s = 0.0;
  int probes = 0;
  std::vector<double> probe_walls;    ///< each probe's wall time, in order
  std::vector<std::size_t> op_probe;  ///< per op: index of the probe before it

  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
  /// Runs one host speed probe and adds its time to the probe fields.
  void probe();
  /// Records an op's time and the probe that ran just before it.
  void end_op(double ms) {
    op_ms.push_back(ms);
    op_probe.push_back(probe_walls.size() - 1);
  }
};

/// Runs one round: every op once. `traced` installs the timing
/// decorators (and, on chaos_soak, the obs exports).
using RoundFn = std::function<void(Round&, bool traced)>;

struct Workload {
  std::string name;
  RoundFn run_round;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds `name`'s inputs from `seed`. Throws std::invalid_argument for
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Thread CPU time in seconds.
[[nodiscard]] double thread_cpu_s();

/// Decorator checks for the self-test: one short op per algorithm (with
/// an event log attached) and per queue policy, each run untraced and
/// traced. Returns one message per mismatch.
[[nodiscard]] std::vector<std::string> check_decorators();

}  // namespace phantom::e2ebench
