// phantom_chaos — randomized fault-schedule search with automatic
// shrinking.
//
// Its flags are the table in chaos/search.cc: `phantom_chaos --help`
// lists them, and docs/OPERATIONS.md holds the same rows.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "chaos/search.h"

namespace {

using namespace phantom;

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
  chaos::CliArgs args;
  exp::FlagTable flags = chaos::cli_flags(args);
  if (const auto status = exp::parse_flags(flags, argc, argv)) return *status;
  const chaos::SearchOptions& s = args.search;
  if (args.spec.sessions < 1 || args.spec.rate_mbps <= 0 ||
      args.spec.horizon <= sim::Time::zero() || s.trials < 1 ||
      s.gen.max_events < 1 || s.max_failures < 1 || s.jobs < 1) {
    std::fprintf(stderr,
                 "need sessions >= 1, rate > 0, duration > 0 ms, "
                 "trials >= 1, max-faults >= 1, max-failures >= 1, "
                 "jobs >= 1\n");
    return 2;
  }
  if (!s.isolate && (s.jobs > 1 || !s.checkpoint.empty())) {
    std::fprintf(stderr,
                 "--jobs and --resume need process isolation "
                 "(drop --no-isolate)\n");
    return 2;
  }
  // --overload arms the scenario's protection and samples its faults.
  args.search.gen.overload = args.spec.overload;

  chaos::SearchReport report;
  try {
    report = chaos::run_search(args.spec, args.search);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos search failed: %s\n", e.what());
    return 2;
  }

  print_summary(report);
  if (!args.json.empty()) {
    const std::string json = report.to_json();
    if (args.json == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out{args.json, std::ios::binary};
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", args.json.c_str());
        return 2;
      }
      out << json;
      std::printf("wrote %s\n", args.json.c_str());
    }
  }
  if (report.interrupted) return 130;
  return report.clean() ? 0 : 1;
}
