// End-to-end benchmark for the Phantom simulator.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   e2ebench --self-test
//
// One process, one thread, closed loop: the workload's ops run back to
// back, round after round, until --seconds have passed (at least one
// round). With --trace 0 the last stdout line is a JSON object holding
// the end-to-end metrics; with --trace 1 the process alternates plain
// and traced rounds (timing decorators at the controller / policy
// factory seams, obs exports on chaos_soak) and reports the per-layer
// metrics. Every op's simulated output is checked; a failed check marks
// the op failed and the run goes on.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "host_probe.h"
#include "workloads.h"

using namespace phantom;
using namespace phantom::e2ebench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       e2ebench --self-test\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!a.self_test && a.workload.empty()) usage("--workload is required");
  if (!(a.seconds >= 0.0)) usage("--seconds must be >= 0");
  return a;
}

/// Linear-interpolation percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Round-time estimate for the run: the median over its rounds. Every
/// round repeats the identical deterministic computation, so the spread
/// between rounds is other load on the host.
template <typename F>
double round_time(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return percentile(std::move(v), 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// How much slower than the reference the host ran during round `r`:
/// the round's mean probe time over kProbeReferenceS (host_probe.h),
/// by the wall clock and by the thread CPU clock. Every round time is
/// divided by its clock's factor. On a shared 4-vCPU VM, six
/// parking-lot runs of 10 s spread 0.15 (quartile distance over median)
/// in raw round time and 0.03 after this division (with an earlier,
/// smaller probe).
double wall_slowdown(const Round& r) {
  return r.probes > 0 ? r.probe_wall_s / r.probes / kProbeReferenceS : 1.0;
}
double cpu_slowdown(const Round& r) {
  return r.probes > 0 ? r.probe_cpu_s / r.probes / kProbeReferenceS : 1.0;
}

/// The slow-down factor for op `i` of round `r`: the probes just before
/// and just after the op (the one before the round's next op or
/// baseline). Load on the host comes and goes within a round, so this
/// local estimate fits one op better than the round's mean. On
/// chaos_soak, six seeds run twice, one round each, while the host was
/// busy: the op-time p50 and p90 spread 0.22 and 0.30 scaled by the round
/// factor, 0.10 and 0.09 scaled by this one.
double op_slowdown(const Round& r, std::size_t i) {
  const std::vector<double>& p = r.probe_walls;
  const std::size_t at = r.op_probe[i];
  const double after = at + 1 < p.size() ? p[at + 1] : p[at];
  return (p[at] + after) / 2 / kProbeReferenceS;
}

/// Σ over `rounds` of a wall-clock time f(r), in reference seconds.
template <typename F>
double wall_sum(const std::vector<Round>& rounds, F f) {
  double s = 0.0;
  for (const Round& r : rounds) s += f(r) / wall_slowdown(r);
  return s;
}

/// Cost of one timed call's clock reads: the median duration a
/// TimedCall measures around no work at all.
double calibrate_clock_ns() {
  std::vector<double> samples;
  for (int rep = 0; rep < 21; ++rep) {
    CallStats s;
    for (int i = 0; i < 20000; ++i) TimedCall t{s};
    samples.push_back(static_cast<double>(s.ns) / static_cast<double>(s.calls));
  }
  return percentile(std::move(samples), 0.5);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string{"{\"correct\": "} + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           num + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Round run_round(const Workload& w, bool traced) {
  Round r;
  const std::uint64_t t0 = steady_ns();
  w.run_round(r, traced);
  r.wall_s = static_cast<double>(steady_ns() - t0) * 1e-9 - r.probe_wall_s;
  return r;
}

/// Every round of a run repeats the same simulations, so each must
/// reproduce the first round's digest.
long digest_mismatches(const std::vector<Round>& rounds, std::uint64_t want) {
  return std::count_if(rounds.begin(), rounds.end(), [want](const Round& r) {
    return r.digest.value() != want;
  });
}

void report_failures(const std::vector<Round>& rounds) {
  std::map<std::string, int> seen;
  for (const Round& r : rounds) {
    for (const std::string& f : r.failures) ++seen[f];
  }
  for (const auto& [what, n] : seen) {
    std::printf("FAILED (x%d): %s\n", n, what.c_str());
  }
}

std::vector<Metric> end_to_end(const std::vector<Round>& rounds, long attempted,
                               long failed) {
  const Round& first = rounds.front();
  std::vector<double> op_ms;
  for (const Round& r : rounds) {
    for (std::size_t i = 0; i < r.op_ms.size(); ++i) {
      op_ms.push_back(r.op_ms[i] / op_slowdown(r, i));
    }
  }
  const double p90 = percentile(op_ms, 0.9);
  std::printf("ops: %zu timed, %ld beyond op_ms_p90\n", op_ms.size(),
              static_cast<long>(std::count_if(op_ms.begin(), op_ms.end(),
                                              [p90](double v) { return v > p90; })));
  const auto units = static_cast<double>(first.units);
  return {
      {"setup_s",
       round_time(rounds, [](const Round& r) { return r.setup_s / wall_slowdown(r); }),
       "s"},
      {"wall_s",
       round_time(rounds, [](const Round& r) { return r.wall_s / wall_slowdown(r); }),
       "s"},
      {"run_cpu_s",
       round_time(rounds, [](const Round& r) { return r.run_cpu_s / cpu_slowdown(r); }),
       "s"},
      {"ns_per_cell",
       round_time(rounds,
                 [](const Round& r) {
                   return ratio(r.run_cpu_s * 1e9 / cpu_slowdown(r),
                                static_cast<double>(r.units));
                 }),
       "ns"},
      {"op_ms_p50", percentile(op_ms, 0.5), "ms"},
      {"op_ms_p90", p90, "ms"},
      {"events_per_cell", ratio(static_cast<double>(first.events), units), "count"},
      {"allocs_per_cell", ratio(static_cast<double>(first.allocs), units), "count"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_op_share",
       ratio(static_cast<double>(attempted - failed), static_cast<double>(attempted)),
       "ratio"},
      {"fair_share_err", ratio(first.fair_err_sum, first.fair_err_ops), "ratio"},
  };
}

std::vector<Metric> per_layer(const std::vector<Round>& plain,
                              const std::vector<Round>& traced,
                              double clock_ns) {
  const Round& u = plain.front();
  const auto units = static_cast<double>(u.units);
  const auto n_traced = static_cast<double>(traced.size());
  const double plain_cpu =
      round_time(plain, [](const Round& r) { return r.run_cpu_s / cpu_slowdown(r); });
  const double traced_cpu =
      round_time(traced, [](const Round& r) { return r.run_cpu_s / cpu_slowdown(r); });

  // Decorator totals over the traced rounds: calls, and nanoseconds with
  // the clock cost removed, in reference time.
  struct SeamTotal {
    double calls = 0.0;
    double ns = 0.0;
  };
  auto add = [clock_ns](SeamTotal& t, const CallStats& s, const Round& r) {
    t.calls += static_cast<double>(s.calls);
    t.ns += std::max(0.0, static_cast<double>(s.ns) -
                              static_cast<double>(s.calls) * clock_ns) /
            wall_slowdown(r);
  };
  std::array<SeamTotal, kAlgorithms.size()> ctrl{};
  SeamTotal policy;
  double traced_units = 0.0;
  for (const Round& r : traced) {
    for (std::size_t a = 0; a < ctrl.size(); ++a) add(ctrl[a], r.ctrl[a], r);
    add(policy, r.policy, r);
    traced_units += static_cast<double>(r.units);
  }
  double ctrl_calls = 0.0;
  double ctrl_ns = 0.0;
  for (const SeamTotal& s : ctrl) {
    ctrl_calls += s.calls;
    ctrl_ns += s.ns;
  }
  const double ctrl_s_per_round = ctrl_ns * 1e-9 / n_traced;
  const bool atm_workload = u.port_cells_tx > 0;

  auto sum = [](const std::vector<Round>& rounds, auto f) {
    double s = 0.0;
    for (const Round& r : rounds) s += f(r);
    return s;
  };
  const double plain_ops = sum(plain, [](const Round& r) { return r.attempted; });

  std::vector<Metric> m = {
      {"sim.events", static_cast<double>(u.events), "count"},
      {"sim.peak_pending", static_cast<double>(u.peak_pending), "count"},
      {"sim.heap_fallbacks", static_cast<double>(u.heap_fallbacks), "count"},
      {"sim.ns_per_event",
       round_time(plain,
                 [](const Round& r) {
                   return ratio(r.run_cpu_s * 1e9 / cpu_slowdown(r),
                                static_cast<double>(r.events));
                 }),
       "ns"},
      {"topo.build_ms",
       ratio(wall_sum(plain, [](const Round& r) { return r.build_s; }) * 1e3, plain_ops),
       "ms"},
      {"topo.sessions", static_cast<double>(u.sessions), "count"},
      {"atm.hops_per_cell", ratio(static_cast<double>(u.port_cells_tx), units), "count"},
      {"atm.rm_per_cell",
       ratio(static_cast<double>(u.rm_cells_sent), static_cast<double>(u.data_cells_sent)),
       "ratio"},
      {"atm.cells_dropped", static_cast<double>(u.cells_dropped), "count"},
      {"atm.max_queue_cells", static_cast<double>(u.max_queue), "count"},
      {"atm.residual_ns_per_cell",
       atm_workload ? ratio((plain_cpu - ctrl_s_per_round) * 1e9, units) : 0.0, "ns"},
      {"ctrl.calls_per_cell", ratio(ctrl_calls, traced_units), "count"},
  };
  for (const exp::Algorithm a : kAlgorithms) {
    std::string name = exp::to_string(a);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    const SeamTotal& s = ctrl[static_cast<std::size_t>(a)];
    m.push_back({"ctrl." + name + ".ns_per_call", ratio(s.ns, s.calls), "ns"});
  }
  const double trials = sum(plain, [](const Round& r) { return r.trials; });
  const double traced_trials = sum(traced, [](const Round& r) { return r.trials; });
  m.insert(
      m.end(),
      {
          {"ctrl.share", ratio(ctrl_s_per_round, plain_cpu), "ratio"},
          {"tcp.policy.calls_per_cell", ratio(policy.calls, traced_units), "count"},
          {"tcp.policy.ns_per_call", ratio(policy.ns, policy.calls), "ns"},
          {"tcp.sent_per_delivered",
           ratio(static_cast<double>(u.tcp_packets_sent), units), "ratio"},
          {"tcp.timeouts", static_cast<double>(u.tcp_timeouts), "count"},
          {"tcp.fast_retransmits", static_cast<double>(u.tcp_fast_retransmits), "count"},
          {"chaos.generate_us",
           ratio(wall_sum(plain, [](const Round& r) { return r.generate_s; }) * 1e6,
                 trials),
           "us"},
          {"chaos.baseline_ms",
           ratio(wall_sum(plain, [](const Round& r) { return r.baseline_s; }) * 1e3,
                 sum(plain, [](const Round& r) { return r.baselines; })),
           "ms"},
          {"chaos.trial_ms",
           ratio(wall_sum(plain, [](const Round& r) { return r.trial_s; }) * 1e3, trials),
           "ms"},
          {"chaos.trial_over_baseline",
           ratio(sum(plain, [](const Round& r) { return r.trial_s; }),
                 sum(plain, [](const Round& r) { return r.trial_baseline_s; })),
           "ratio"},
          {"chaos.events_per_trial",
           ratio(static_cast<double>(u.events), u.trials), "count"},
          {"obs.snapshot_us",
           ratio(wall_sum(traced, [](const Round& r) { return r.snapshot_s; }) * 1e6,
                 traced_trials),
           "us"},
          {"obs.snapshot_bytes", static_cast<double>(traced.front().snapshot_bytes),
           "bytes"},
          {"obs.events_recorded", static_cast<double>(traced.front().events_recorded),
           "count"},
          {"obs.export_ms",
           ratio(wall_sum(traced, [](const Round& r) { return r.export_s; }) * 1e3,
                 traced_trials),
           "ms"},
          {"stats.reference_us",
           ratio(wall_sum(plain, [](const Round& r) { return r.reference_s; }) * 1e6,
                 sum(plain, [](const Round& r) { return r.fair_err_ops; })),
           "us"},
          {"trace.overhead", ratio(traced_cpu, plain_cpu), "ratio"},
          {"trace.clock_ns", clock_ns, "ns"},
          {"host.probe_ms",
           round_time(plain,
                      [](const Round& r) { return ratio(r.probe_wall_s, r.probes) * 1e3; }),
           "ms"},
      });
  return m;
}

int run_benchmark(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  const double clock_ns = a.trace ? calibrate_clock_ns() : 0.0;
  std::vector<Round> plain;
  std::vector<Round> traced;
  const std::uint64_t start = steady_ns();
  do {
    plain.push_back(run_round(w, false));
    if (a.trace) traced.push_back(run_round(w, true));
  } while (static_cast<double>(steady_ns() - start) * 1e-9 < a.seconds);

  const std::uint64_t digest = plain.front().digest.value();
  long mismatches = digest_mismatches(plain, digest);
  std::printf("workload %s seed %llu: %zu rounds\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), plain.size());
  std::printf("digest %s %016llx\n", a.workload.c_str(),
              static_cast<unsigned long long>(digest));
  std::printf("host probe: median %.3f ms against the %.3f ms reference; times "
              "below are in reference time\n",
              round_time(plain,
                         [](const Round& r) { return ratio(r.probe_wall_s, r.probes); }) *
                  1e3,
              kProbeReferenceS * 1e3);
  if (a.trace) {
    std::printf("digest-traced %s %016llx\n", a.workload.c_str(),
                static_cast<unsigned long long>(traced.front().digest.value()));
    mismatches += digest_mismatches(traced, digest);
  }
  if (mismatches > 0) {
    std::printf("FAILED: %ld rounds did not reproduce the first round's digest\n",
                mismatches);
  }

  std::vector<Round> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  report_failures(all);
  long attempted = 0;
  long failed = 0;
  for (const Round& r : all) {
    attempted += r.attempted;
    failed += r.failed;
  }
  const bool correct = failed == 0 && mismatches == 0;
  print_result(correct, attempted, failed,
               a.trace ? per_layer(plain, traced, clock_ns)
                       : end_to_end(plain, attempted, failed));
  return 0;
}

/// The benchmark's own tests: decorators leave every digest unchanged,
/// and the deterministic metrics repeat exactly across two in-process
/// runs of each workload.
int self_test() {
  std::vector<std::string> problems = check_decorators();
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 1);
    const Round first = run_round(w, false);
    const Round second = run_round(w, false);
    const Round traced = run_round(w, true);
    auto same = [&](const char* what, auto x, auto y) {
      if (x != y) problems.push_back(name + ": " + what + " differs between runs");
    };
    same("digest", first.digest.value(), second.digest.value());
    same("traced digest", first.digest.value(), traced.digest.value());
    same("events", first.events, second.events);
    same("units", first.units, second.units);
    same("allocs", first.allocs, second.allocs);
    same("fair_share_err", first.fair_err_sum, second.fair_err_sum);
    if (first.failed > 0) problems.push_back(name + ": " + first.failures.front());
    std::printf("self-test %s: %llu units, %llu events, %llu allocs\n",
                name.c_str(), static_cast<unsigned long long>(first.units),
                static_cast<unsigned long long>(first.events),
                static_cast<unsigned long long>(first.allocs));
  }
  for (const std::string& p : problems) std::printf("FAIL %s\n", p.c_str());
  std::printf("self-test: %s\n", problems.empty() ? "PASS" : "FAIL");
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    return a.self_test ? self_test() : run_benchmark(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
