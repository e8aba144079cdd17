#include "chaos/search.h"

#include <utility>

#include "chaos/json.h"
#include "chaos/supervisor.h"
#include "obs/json.h"

namespace phantom::chaos {

using obs::fmt_double;
using obs::json_escape;

namespace {

/// splitmix64 (Steele et al.) — decorrelates per-trial generator seeds
/// from the master seed and each other.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::uint64_t trial_gen_seed(std::uint64_t master, int trial) {
  // 0x6368616f73 == "chaos"; keeps the generator stream distinct from
  // the simulator stream even when master seeds collide with sim seeds.
  return splitmix64(master ^ (0x6368616f73ULL + static_cast<std::uint64_t>(trial)));
}

void append_trial_result(std::string& out, const char* prefix,
                         const TrialResult& r) {
  out += std::string{"\""} + prefix + "verdict\": \"" + to_string(r.verdict) +
         "\", ";
  out += std::string{"\""} + prefix + "detail\": \"" + json_escape(r.detail) +
         "\", ";
  if (r.verdict == Verdict::kProcessCrash) {
    out += std::string{"\""} + prefix + "crash_signal\": \"" +
           json_escape(r.crash_signal) + "\", ";
    out += std::string{"\""} + prefix + "exit_code\": " +
           std::to_string(r.exit_code) + ", ";
    out += std::string{"\""} + prefix + "stderr_tail\": \"" +
           json_escape(r.stderr_tail) + "\", ";
  }
}

}  // namespace

std::string SearchReport::to_json() const {
  std::string out = "{\n";
  out += "  \"scenario\": {\"kind\": \"" + json_escape(to_string(spec.kind)) +
         "\", \"algorithm\": \"" + json_escape(exp::to_string(spec.algorithm)) +
         "\", \"sessions\": " + std::to_string(spec.sessions) +
         ", \"rate_mbps\": " + fmt_double(spec.rate_mbps) +
         ", \"horizon_ms\": " + fmt_double(spec.horizon.milliseconds()) +
         "},\n";
  out += "  \"options\": {\"trials\": " + std::to_string(options.trials) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"max_failures\": " + std::to_string(options.max_failures) +
         ", \"shrink\": " + (options.shrink ? "true" : "false") + "},\n";
  out += "  \"baseline_share_mbps\": " + fmt_double(baseline_share_mbps) +
         ",\n";
  out += "  \"trials_run\": " + std::to_string(trials_run) + ",\n";
  out += "  \"passed\": " + std::to_string(passed) + ",\n";
  out += std::string{"  \"interrupted\": "} + (interrupted ? "true" : "false") +
         ",\n";
  out += "  \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const Failure& f = failures[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"trial\": " + std::to_string(f.trial) + ", ";
    append_trial_result(out, "", f.result);
    out += "\"plan\": \"" + json_escape(f.plan.to_spec()) + "\", ";
    out += "\"shrunk_plan\": \"" + json_escape(f.shrunk_plan.to_spec()) +
           "\", ";
    append_trial_result(out, "shrunk_", f.shrunk_result);
    out += "\"shrink_probes\": " + std::to_string(f.shrink_probes) + ", ";
    out += "\"replay\": \"" + json_escape(cli_replay(f)) + "\"}";
  }
  out += failures.empty() ? "],\n" : "\n  ],\n";
  out += "  \"failure_classes\": [";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const TriagedClass& c = classes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"fingerprint\": \"" + json_escape(c.fingerprint) + "\", ";
    out += "\"verdict\": \"" + std::string{to_string(c.verdict)} + "\", ";
    out += "\"signal\": \"" + json_escape(c.signal) + "\", ";
    out += "\"count\": " + std::to_string(c.trials.size()) + ", ";
    out += "\"trials\": [";
    for (std::size_t t = 0; t < c.trials.size(); ++t) {
      out += (t == 0 ? "" : ", ") + std::to_string(c.trials[t]);
    }
    out += "], ";
    out += "\"sample_detail\": \"" + json_escape(c.sample_detail) + "\", ";
    out += "\"flight_recorder\": [";
    for (std::size_t t = 0; t < c.flight_recorder.size(); ++t) {
      if (t > 0) out += ", ";
      out += "\"" + json_escape(c.flight_recorder[t]) + "\"";
    }
    out += "]}";
  }
  out += classes.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string SearchReport::cli_replay(const Failure& f) const {
  std::string cmd = "phantom_cli --scenario=" + to_string(spec.kind);
  cmd += " --algorithm=" + exp::to_string(spec.algorithm);
  cmd += " --sessions=" + std::to_string(spec.sessions);
  cmd += " --rate-mbps=" + fmt_double(spec.rate_mbps);
  cmd += " --duration-ms=" + fmt_double(spec.horizon.milliseconds());
  cmd += " --seed=" + std::to_string(options.seed);
  if (spec.overload) cmd += " --overload";
  cmd += " --fault-plan='" + f.shrunk_plan.to_spec() + "'";
  return cmd;
}

SearchReport run_search(const exp::Scenario& spec, const SearchOptions& opt) {
  SearchReport report;
  report.spec = spec;
  report.options = opt;

  const Baseline baseline = run_baseline(spec, opt.seed, opt.trial);
  report.baseline_share_mbps = baseline.settled_share_bps * 1e-6;

  // Every trial draws its plan from a private generator stream, so
  // generating the whole schedule up front is exactly equivalent to
  // generating lazily — and it is what lets the supervisor hand trials
  // to children in any completion order while the report stays a pure
  // function of (spec, options).
  std::vector<fault::FaultPlan> plans;
  plans.reserve(static_cast<std::size_t>(opt.trials));
  for (int t = 0; t < opt.trials; ++t) {
    sim::Rng gen_rng{trial_gen_seed(opt.seed, t)};
    plans.push_back(generate_plan(gen_rng, spec, opt.gen));
  }

  std::vector<std::optional<TrialResult>> results;
  if (opt.isolate) {
    SupervisorOptions sup;
    sup.jobs = opt.jobs;
    sup.isolate = opt.isolation;
    sup.checkpoint_path = opt.checkpoint;
    Supervisor supervisor{spec, opt.seed, opt.trial, baseline, sup};
    SupervisedOutcome outcome = supervisor.run(plans, opt.max_failures);
    results = std::move(outcome.results);
    report.interrupted = outcome.interrupted;
    report.resumed = outcome.resumed;
  } else {
    results.resize(plans.size());
    int failures = 0;
    for (std::size_t t = 0; t < plans.size(); ++t) {
      if (failures >= opt.max_failures) break;
      results[t] = run_trial(spec, opt.seed, plans[t], opt.trial, &baseline);
      if (results[t]->failed()) ++failures;
    }
  }

  // Shrink probes honour the isolation setting: a minimization step
  // that crashes or hangs the process must be as contained as the
  // trial that found the bug.
  const auto probe = [&](const fault::FaultPlan& p) {
    return opt.isolate ? run_trial_isolated(spec, opt.seed, p, opt.trial,
                                            &baseline, opt.isolation)
                       : run_trial(spec, opt.seed, p, opt.trial, &baseline);
  };

  for (std::size_t t = 0; t < results.size(); ++t) {
    if (!results[t]) continue;  // past the cutoff, or interrupted
    ++report.trials_run;
    if (!results[t]->failed()) {
      ++report.passed;
      continue;
    }
    Failure f;
    f.trial = static_cast<int>(t);
    f.plan = plans[t];
    f.result = *results[t];
    f.shrunk_plan = plans[t];
    if (report.interrupted) {
      // Drain fast: report the raw failure; a resumed run can shrink.
      f.shrunk_result = f.result;
    } else {
      if (opt.shrink) {
        // "Still fails" means the same oracle fires — a plan that trips a
        // *different* oracle is a different bug, not a smaller repro.
        const auto still_fails = [&](const fault::FaultPlan& candidate) {
          return probe(candidate).verdict == f.result.verdict;
        };
        ShrinkResult s = shrink(plans[t], still_fails, opt.shrinker);
        f.shrunk_plan = std::move(s.plan);
        f.shrink_probes = s.probes;
      }
      f.shrunk_result = probe(f.shrunk_plan);
    }
    report.failures.push_back(std::move(f));
  }

  std::vector<std::tuple<int, const TrialResult*, const fault::FaultPlan*>>
      failing;
  failing.reserve(report.failures.size());
  for (const Failure& f : report.failures) {
    // Fingerprint against the *generated* plan: the shrunk plan may
    // have dropped the misbehave events that define the class.
    failing.emplace_back(f.trial, &f.result, &f.plan);
  }
  report.classes = triage_failures(failing);
  return report;
}

}  // namespace phantom::chaos
