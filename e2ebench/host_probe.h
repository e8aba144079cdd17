// Host speed probe: a fixed slice of CPU work owned by the benchmark.
//
// On a shared virtual machine the same simulation can take 30% longer
// in one minute than in the next: the host runs other guests on the same
// cores. The probe measures how fast the host is running right now. It
// does the same kind of work as the simulator's hot paths (a binary heap
// of timestamps, hash-table lookups, dependent loads over a table larger
// than L1) but calls nothing in src/, so a change to the simulator never
// moves it. The benchmark runs one probe before every op and reports its
// times in reference seconds: a measured time divided by the host's
// slow-down factor, probe time over kProbeReferenceS, over the same round.
#pragma once

namespace phantom::e2ebench {

/// Wall and thread CPU seconds of one probe.
struct ProbeTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// The reference probe time. On the shared 4-vCPU x86-64 VM the
/// benchmark was written on, the probe (RelWithDebInfo build) took
/// 5.4-8.3 ms (run medians) as the load from other guests came and went.
/// A measured time times kProbeReferenceS over the probe time around it
/// reads as the time on a host where the probe takes 5 ms.
inline constexpr double kProbeReferenceS = 5.0e-3;

/// Runs the probe once. Deterministic work; only its duration varies.
ProbeTime run_host_probe();

}  // namespace phantom::e2ebench
