// phantom_chaos — randomized fault-schedule search with automatic
// shrinking.
//
// Usage:
//   phantom_chaos [--scenario=bottleneck|parking]
//                 [--algorithm=phantom|eprca|aprc|capc|erica]
//                 [--sessions=N] [--rate-mbps=R] [--duration-ms=D]
//                 [--trials=T] [--seed=S] [--max-faults=K]
//                 [--max-failures=F] [--shrink=0|1] [--json=PATH]
//                 [--isolate|--no-isolate] [--jobs=N] [--timeout-ms=T]
//                 [--resume=PATH] [--misbehave=0|1] [--rm-blackhole=0|1]
//                 [--overload=0|1]
//
// Generates T randomized fault schedules for the scenario, runs each
// under a watchdog (event/sim-time budgets, livelock detection), and
// judges it against three oracles: invariant violations, reconvergence
// deadlines, and a differential check against the fault-free run of the
// same seed. Failures are delta-debugged to a minimal schedule that
// replays under `phantom_cli --fault-plan=...`, then triaged into
// unique failure classes.
//
// Isolation is on by default: each trial (and each shrink probe) runs
// in a forked, rlimited child, so a SIGSEGV / assert / sanitizer abort
// / OOM in the system under test becomes a structured process-crash
// failure instead of killing the search. --jobs=N runs N children
// concurrently; --timeout-ms sets the per-trial wall-clock kill
// deadline; --resume=PATH checkpoints completed trials to a JSONL file
// and, when the file already exists for the same search, resumes from
// it. Ctrl-C drains gracefully: in-flight trials finish, the
// checkpoint stays consistent, and a partial report is printed.
//
// The report is a pure function of (scenario flags, seed): the same
// seed produces a byte-identical JSON report at any --jobs value, and
// — for crash-free scenarios — with or without isolation. --json=-
// writes JSON to stdout; any other path writes a file. Exit code 0
// when every trial passed, 1 when failures were found, 2 on bad
// arguments (a numeric value must be one complete number with nothing
// after it; see sim::parse_number), 130 when interrupted.
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "chaos/search.h"
#include "sim/parse_number.h"

namespace {

using namespace phantom;
using sim::parse_number;

struct Args {
  exp::Scenario spec;
  chaos::SearchOptions search;
  std::string json;  // empty = no JSON; "-" = stdout
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  a.search.isolate = true;  // crash containment is the CLI's default
  double duration_ms = a.spec.horizon.milliseconds();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--isolate" || arg == "--no-isolate") {
      a.search.isolate = arg == "--isolate";
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s (want --key=value)\n",
                   arg.c_str());
      return std::nullopt;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    try {
      if (key == "scenario") {
        const auto kind = exp::kind_from_string(val);
        if (!kind) {
          std::fprintf(stderr, "unknown scenario: %s\n", val.c_str());
          return std::nullopt;
        }
        a.spec.kind = *kind;
      } else if (key == "algorithm") {
        const auto alg = exp::algorithm_from_string(val);
        if (!alg) {
          std::fprintf(stderr, "unknown algorithm: %s\n", val.c_str());
          return std::nullopt;
        }
        a.spec.algorithm = *alg;
      } else if (key == "sessions") a.spec.sessions = parse_number<int>(val);
      else if (key == "rate-mbps") a.spec.rate_mbps = parse_number<double>(val);
      else if (key == "duration-ms") duration_ms = parse_number<double>(val);
      else if (key == "trials") a.search.trials = parse_number<int>(val);
      else if (key == "seed") a.search.seed = parse_number<std::uint64_t>(val);
      else if (key == "max-faults") a.search.gen.max_events = parse_number<int>(val);
      else if (key == "max-failures") a.search.max_failures = parse_number<int>(val);
      else if (key == "shrink") a.search.shrink = parse_number<int>(val) != 0;
      else if (key == "json") a.json = val;
      else if (key == "jobs") a.search.jobs = parse_number<int>(val);
      else if (key == "timeout-ms") {
        a.search.isolation.timeout_ms = parse_number<std::int64_t>(val);
      }
      else if (key == "resume") a.search.checkpoint = val;
      // Opt-in so historical seeds/checkpoints keep their schedules:
      // adds misbehave/comply pairs to the generated fault grammar.
      else if (key == "misbehave") {
        a.search.gen.misbehave = parse_number<int>(val) != 0;
      }
      // Opt-in for the same reason: adds directional feedback-blackhole
      // windows (backward RM loss with paired recovery).
      else if (key == "rm-blackhole") {
        a.search.gen.rm_blackhole = parse_number<int>(val) != 0;
      }
      // Opt-in resource-exhaustion faults: arms the scenario's overload
      // protection (bounded buffers + CAC) and adds memsqueeze/vcstorm
      // windows to the generated grammar.
      else if (key == "overload") {
        a.spec.overload = parse_number<int>(val) != 0;
        a.search.gen.overload = a.spec.overload;
      }
      else {
        std::fprintf(stderr, "unknown option: --%s\n", key.c_str());
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(),
                   val.c_str());
      return std::nullopt;
    }
  }
  if (a.spec.sessions < 1 || a.spec.rate_mbps <= 0 || duration_ms <= 0 ||
      a.search.trials < 1 || a.search.gen.max_events < 1 ||
      a.search.max_failures < 1 || a.search.jobs < 1) {
    std::fprintf(stderr,
                 "need sessions >= 1, rate > 0, duration > 0 ms, "
                 "trials >= 1, max-faults >= 1, max-failures >= 1, "
                 "jobs >= 1\n");
    return std::nullopt;
  }
  a.spec.horizon = sim::Time::from_seconds(duration_ms / 1e3);
  if (!a.search.isolate && (a.search.jobs > 1 || !a.search.checkpoint.empty())) {
    std::fprintf(stderr,
                 "--jobs and --resume need process isolation "
                 "(drop --no-isolate)\n");
    return std::nullopt;
  }
  return a;
}

void print_summary(const chaos::SearchReport& report) {
  std::printf("chaos: %s/%s, %d sessions @ %.0f Mb/s, horizon %.0f ms\n",
              exp::to_string(report.spec.kind).c_str(),
              exp::to_string(report.spec.algorithm).c_str(),
              report.spec.sessions, report.spec.rate_mbps,
              report.spec.horizon.milliseconds());
  std::printf("seed %llu | baseline share %.2f Mb/s | %d trials, %d passed, "
              "%zu failed\n",
              static_cast<unsigned long long>(report.options.seed),
              report.baseline_share_mbps, report.trials_run, report.passed,
              report.failures.size());
  if (report.resumed > 0) {
    std::printf("resumed %d completed trial%s from the checkpoint\n",
                report.resumed, report.resumed == 1 ? "" : "s");
  }
  for (const auto& f : report.failures) {
    std::printf("\nFAILURE (trial %d): %s\n  %s\n", f.trial,
                chaos::to_string(f.result.verdict), f.result.detail.c_str());
    if (f.result.verdict == chaos::Verdict::kProcessCrash &&
        !f.result.stderr_tail.empty()) {
      std::printf("  stderr tail:\n");
      const std::string& tail = f.result.stderr_tail;
      std::size_t start = 0;
      while (start < tail.size()) {
        std::size_t end = tail.find('\n', start);
        if (end == std::string::npos) end = tail.size();
        std::printf("    %.*s\n", static_cast<int>(end - start),
                    tail.data() + start);
        start = end + 1;
      }
    }
    std::printf("  plan:      %s\n", f.plan.to_spec().c_str());
    std::printf("  minimized: %s  (%zu of %zu events, %d probes)\n",
                f.shrunk_plan.to_spec().c_str(), f.shrunk_plan.events.size(),
                f.plan.events.size(), f.shrink_probes);
    std::printf("  replay:    %s\n", report.cli_replay(f).c_str());
  }
  if (!report.failures.empty()) {
    std::printf("\n%zu unique failure class%s:\n", report.classes.size(),
                report.classes.size() == 1 ? "" : "es");
    for (const auto& c : report.classes) {
      std::printf("  [%zu trial%s] %s%s%s — e.g. trial %d: %s\n",
                  c.trials.size(), c.trials.size() == 1 ? "" : "s",
                  chaos::to_string(c.verdict), c.signal.empty() ? "" : "/",
                  c.signal.c_str(), c.trials.front(),
                  c.sample_detail.c_str());
    }
  }
  if (report.interrupted) {
    std::printf("\ninterrupted — the report covers only completed trials");
    if (!report.options.checkpoint.empty()) {
      std::printf("; resume with --resume=%s",
                  report.options.checkpoint.c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) return 2;

  chaos::SearchReport report;
  try {
    report = chaos::run_search(args->spec, args->search);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos search failed: %s\n", e.what());
    return 2;
  }

  print_summary(report);
  if (!args->json.empty()) {
    const std::string json = report.to_json();
    if (args->json == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out{args->json, std::ios::binary};
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", args->json.c_str());
        return 2;
      }
      out << json;
      std::printf("wrote %s\n", args->json.c_str());
    }
  }
  if (report.interrupted) return 130;
  return report.clean() ? 0 : 1;
}
