// phantom_cli — scripted scenario runner for the Phantom library.
//
// Runs one scenario and prints its report. Its flags are the table in
// exp/flags.cc: `phantom_cli --help` lists them, and docs/OPERATIONS.md
// holds the same rows.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>

#include "atm/abr_source.h"
#include "atm/policer.h"
#include "exp/flags.h"
#include "exp/metrics_doc.h"
#include "exp/probes.h"
#include "exp/report.h"
#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "stats/fairness.h"
#include "stats/recovery.h"
#include "tcp/phantom_policies.h"
#include "topo/workload.h"

namespace {

using namespace phantom;
using sim::Rate;
using sim::Time;

/// Kernel statistics for --perf-report. The wall clock runs from
/// `start`, taken before the simulation executes (not while the
/// topology is built or the report printed).
void print_perf(const sim::Simulator& sim,
                std::chrono::steady_clock::time_point start) {
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto executed = sim.events_executed();
  std::printf(
      "\nperf: %llu events in %.3f s wall (%.3g events/sec)\n"
      "perf: peak pending events %zu, inline-callback heap fallbacks %llu\n",
      static_cast<unsigned long long>(executed), wall_s,
      static_cast<double>(executed) / wall_s, sim.peak_pending_count(),
      static_cast<unsigned long long>(
          sim::EventQueue::Callback::heap_fallbacks()));
}

/// Replaces --fault-plan=@PATH with the file's trimmed contents, or
/// returns why it cannot. The file is the authoritative fault schedule:
/// failing to read it must kill the run, not degrade it into a
/// fault-free simulation whose clean report would be mistaken for
/// resilience.
std::string read_fault_plan_file(std::string& plan) {
  const std::string path = plan.substr(1);
  if (path.empty()) return "--fault-plan=@ expects a file path after '@'";
  std::ifstream in{path, std::ios::binary};
  if (!in) return "cannot read fault plan file '" + path + "'";
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) return "error reading fault plan file '" + path + "'";
  const std::string spec = contents.str();
  const auto first = spec.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    return "fault plan file '" + path + "' is empty";
  }
  plan = spec.substr(first, spec.find_last_not_of(" \t\r\n") - first + 1);
  return "";
}

/// The rules no row holds: ranges checked together, flags that need
/// another and the scenario's own words. Returns the first one broken,
/// or "" to run with the ABR scenario's kind and algorithm resolved.
std::string check(exp::CliArgs& a, const exp::FlagTable& flags) {
  exp::Scenario& s = a.spec;
  const std::size_t budget = s.overload_options.buffer.budget_cells;
  obs::EventLog::Filter& only = a.trace_filter;
  only.category = obs::category_from_string(a.trace_category);
  std::string invalid;  // --crm, --cdf, --adtf, --mcr-mbps
  try {
    s.abr_params.validate();
  } catch (const std::invalid_argument& e) {
    invalid = e.what();
  }
  const std::pair<bool, std::string> rules[] = {
      // An empty value must not silently run fault-free.
      {flags.given("fault-plan") && a.fault_plan.empty(),
       "--fault-plan needs a spec or @file"},
      {budget == 0, "--buffer-cells must be >= 1"},
      // A budget is a count that a signed 64-bit integer holds.
      {budget > INT64_MAX,
       "bad value for --buffer-cells: " + std::to_string(budget)},
      {s.sessions < 1 || s.rate_mbps <= 0 || s.horizon < Time::ms(50),
       "need sessions >= 1, rate > 0, duration >= 50 ms"},
      {a.adversaries < 0 || a.adversaries > s.sessions,
       "need 0 <= adversaries <= sessions"},
      {a.adversary_mode != "greedy" && a.adversary_mode != "forge" &&
           a.adversary_mode != "partial",
       "unknown adversary mode: " + a.adversary_mode},
      {a.compliance < 0.0 || a.compliance > 1.0,
       "compliance must be in [0, 1]"},
      {a.policing != "off" && a.policing != "monitor" && a.policing != "tag" &&
           a.policing != "drop",
       "unknown policing action: " + a.policing},
      {!invalid.empty(), invalid},
      {!s.overload && (flags.given("buffer-cells") || flags.given("no-epd")),
       "--buffer-cells and --no-epd need --overload"},
      {a.metrics_interval < Time::zero(), "--metrics-interval must be >= 0 ms"},
      {a.metrics_interval > Time::zero() && a.metrics_out.empty(),
       "--metrics-interval needs --metrics-out"},
      {a.trace_capacity < 1, "--trace-capacity must be >= 1"},
      {(only.vc || only.node || only.port || !a.trace_category.empty()) &&
           a.trace_jsonl.empty(),
       "--trace-vc/node/port/category filter the\n"
       "--trace-jsonl export; pass --trace-jsonl=FILE"},
      {!a.trace_category.empty() && !only.category,
       "unknown trace category: " + a.trace_category +
           " (want cell|rm|policer|admission|fault|controller)"},
      {a.validate_only && a.fault_plan.empty(),
       "--validate-only needs --fault-plan"}};
  for (const auto& [broken, why] : rules) {
    if (broken) return why;
  }
  if (a.fault_plan.starts_with('@')) {
    if (std::string why = read_fault_plan_file(a.fault_plan); !why.empty()) {
      return why;
    }
  }
  // --metrics-doc prints the reference whatever the scenario.
  if (a.metrics_doc) return "";
  if (a.scenario == "tcp") {
    if (a.algorithm != "phantom" && a.algorithm != "droptail") {
      return "unknown tcp algorithm: " + a.algorithm +
             " (want phantom|droptail)";
    }
    for (const auto& [title, rows] : flags.groups) {
      for (const exp::Flag& f : rows) {
        if (f.abr && f.given) {
          return "--" + std::string{f.name} +
                 " does not apply to --scenario=tcp (ABR flags require an "
                 "ABR scenario)";
        }
      }
    }
    return "";
  }
  const auto algorithm = exp::algorithm_from_string(a.algorithm);
  if (!algorithm) return "unknown algorithm: " + a.algorithm;
  s.algorithm = *algorithm;
  // "onoff" is the bottleneck topology plus an OnOffDriver on the last
  // session; every other ABR name is a Scenario kind.
  if (a.scenario == "onoff") return "";
  const auto kind = exp::kind_from_string(a.scenario);
  if (!kind) return "unknown scenario: " + a.scenario;
  s.kind = *kind;
  return "";
}

/// Fault machinery armed when --fault-plan is given: the injector, the
/// invariant monitor, and a fair-share sampler on the bottleneck (the
/// trace time-to-reconvergence is computed from).
struct FaultHarness {
  FaultHarness(sim::Simulator& sim, topo::AbrNetwork& net,
               const atm::OutputPort& bottleneck, const fault::FaultPlan& p,
               obs::EventLog* events = nullptr)
      // The plan is applied before the monitor and sampler arm, mirroring
      // chaos::run_trial exactly so chaos-reported schedules replay 1:1.
      // The event log (may be null) attaches before apply() so the
      // kFaultArmed records land in the trace.
      : injector{sim, net},
        monitor{(injector.set_event_log(events), injector.apply(p), sim),
                net},
        share{sim, bottleneck.controller()},
        plan{p} {
    monitor.set_event_log(events);
  }

  fault::FaultInjector injector;
  fault::InvariantMonitor monitor;
  exp::FairShareSampler share;
  fault::FaultPlan plan;
};

/// Writes `content` to `path` (binary, whole file). Failing to write a
/// requested artifact is a hard error, not a warning — an operator
/// piping --trace-out into a dashboard must not get a silent no-op.
bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  if (!out.good()) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Writes registry snapshots to the --metrics-out file: a final
/// snapshot always (finish()), plus one every --metrics-interval
/// simulated milliseconds when set. A ".csv" path selects long-format
/// CSV (one header, every snapshot appends rows); any other path gets
/// one JSON snapshot object per line.
class MetricsDumper {
 public:
  MetricsDumper(sim::Simulator& sim, const obs::Registry& reg,
                const std::string& path, Time period)
      : sim_{&sim},
        reg_{&reg},
        csv_{path.ends_with(".csv")},
        out_{path, std::ios::binary},
        period_{period} {
    if (!out_) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    if (csv_) out_ << obs::Registry::csv_header();
    if (period_ > Time::zero()) sim_->schedule(period_, [this] { tick(); });
  }

  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

  [[nodiscard]] bool ok() const { return out_.good(); }
  void finish() { snapshot(); }

 private:
  void tick() {
    snapshot();
    sim_->schedule(period_, [this] { tick(); });
  }
  void snapshot() {
    if (!out_) return;
    if (csv_) {
      out_ << reg_->snapshot_csv(sim_->now());
    } else {
      out_ << reg_->snapshot_json(sim_->now()) << '\n';
    }
  }

  sim::Simulator* sim_;
  const obs::Registry* reg_;
  bool csv_;
  std::ofstream out_;
  Time period_;
};

void report_faults(const FaultHarness& h) {
  exp::print_fault_log(h.injector.log());
  exp::print_violations(h.monitor);
  // Reconvergence: back to the pre-fault operating point (mean fair
  // share over the half-window before the first fault) within 10%.
  const sim::Time first = h.plan.first_fault_time();
  const double target =
      stats::mean_in_window(h.share.trace().samples(), first * 0.5, first);
  const auto latency =
      stats::time_to_reconverge(h.share.trace().samples(), first, target);
  if (latency) {
    std::printf(
        "reconverged to pre-fault share (%.2f Mb/s +/- 10%%) %.3f ms after "
        "first fault\n",
        target * 1e-6, latency->milliseconds());
  } else {
    std::printf("did NOT reconverge to pre-fault share (%.2f Mb/s +/- 10%%)\n",
                target * 1e-6);
  }
}

void report_abr(sim::Simulator& sim, topo::AbrNetwork& net,
                atm::OutputPort& bottleneck, const exp::CliArgs& args,
                const sim::Trace& queue_trace,
                const FaultHarness* faults = nullptr) {
  exp::GoodputProbe probe{sim, net};
  const Time horizon = args.spec.horizon;
  sim.run_until(horizon * 0.6);
  probe.mark();
  sim.run_until(horizon);

  const auto rates = probe.rates_mbps();
  exp::Table table{{"session", "goodput (Mb/s)"}};
  for (std::size_t s = 0; s < rates.size(); ++s) {
    table.add_row({std::to_string(s), exp::Table::num(rates[s])});
  }
  table.print();
  std::printf(
      "\nJain %.4f | total %.2f Mb/s | fair-share estimate %.2f Mb/s\n"
      "queue: now %zu, max %zu cells, drops %llu\n",
      stats::jain_index(rates), probe.total_mbps(),
      bottleneck.controller().fair_share().mbits_per_sec(),
      bottleneck.queue_length(), bottleneck.max_queue_length(),
      static_cast<unsigned long long>(bottleneck.cells_dropped()));
  if (faults != nullptr) {
    std::printf("cells lost on links: %llu\n",
                static_cast<unsigned long long>(net.total_cells_lost()));
    report_faults(*faults);
  }
  if (!args.csv.empty()) {
    exp::write_series_csv(args.csv + "_queue.csv", queue_trace.samples());
    std::printf("wrote %s_queue.csv\n", args.csv.c_str());
    if (faults != nullptr) {
      exp::write_series_csv(args.csv + "_share.csv",
                            faults->share.trace().samples(), 1e-6);
      std::printf("wrote %s_share.csv\n", args.csv.c_str());
    }
  }
}

int run_abr_scenario(const exp::CliArgs& args) {
  std::optional<fault::FaultPlan> plan;
  sim::Simulator sim{args.seed};
  std::optional<exp::BuiltScenario> built;
  try {
    if (!args.fault_plan.empty()) {
      plan = fault::FaultPlan::parse(args.fault_plan);
    }
    // e.g. a --rate-mbps whose cell time sim::Time cannot hold
    built.emplace(sim, args.spec);
  } catch (const std::exception& e) {
    // The dry run's verdict (exit 1) under --validate-only, a usage
    // error (exit 2) otherwise.
    std::fprintf(stderr, "%s\n", e.what());
    return args.validate_only ? 1 : 2;
  }
  topo::AbrNetwork& net = built->net;
  atm::OutputPort& bottleneck = built->port;

  if (args.validate_only) {
    // Dry run: resolve every target against the real topology (eager
    // validation), but never start the clock. Exit 0 iff the plan would
    // load; errors keep their 1-based positions.
    try {
      fault::FaultInjector injector{sim, net};
      injector.apply(*plan, fault::FaultInjector::ValidateMode::kEager);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("fault plan OK: %zu event%s\n", plan->events.size(),
                plan->events.size() == 1 ? "" : "s");
    return 0;
  }

  std::optional<obs::EventLog> events;
  if (!args.trace_out.empty() || !args.trace_jsonl.empty()) {
    events.emplace(static_cast<std::size_t>(args.trace_capacity));
    net.attach_event_log(&*events);
  }

  if (args.adversaries > 0) {
    // The last N sessions turn hostile; compliant ones keep low indices
    // so their goodput rows are easy to eyeball in the table.
    const auto mode = args.adversary_mode == "greedy"
                          ? atm::SourceBehavior::kGreedy
                          : args.adversary_mode == "forge"
                                ? atm::SourceBehavior::kForging
                                : atm::SourceBehavior::kPartial;
    for (int i = 0; i < args.adversaries; ++i) {
      net.set_session_behavior(
          static_cast<std::size_t>(args.spec.sessions - 1 - i), mode,
          args.compliance);
    }
  }
  if (args.policing != "off") {
    atm::PolicerConfig pc;
    pc.action = args.policing == "monitor" ? atm::PolicingAction::kMonitor
                : args.policing == "tag"   ? atm::PolicingAction::kTag
                                           : atm::PolicingAction::kDrop;
    net.enable_policing(pc);
  }

  std::optional<FaultHarness> faults;
  if (plan) {
    try {
      faults.emplace(sim, net, bottleneck, *plan, events ? &*events : nullptr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  // The registry samples by callback, so it registers after everything
  // that owns metrics exists (policers, buffer managers, the injector).
  obs::Registry registry;
  std::optional<MetricsDumper> metrics;
  if (!args.metrics_out.empty()) {
    net.register_metrics(registry);
    if (faults) faults->injector.register_metrics(registry, "fault");
    metrics.emplace(sim, registry, args.metrics_out, args.metrics_interval);
    if (!metrics->ok()) return 2;
  }
  exp::QueueSampler queue{sim, bottleneck};
  std::optional<topo::OnOffDriver> driver;
  if (args.scenario == "onoff") {
    topo::OnOffDriver::Options opt;  // last session toggles
    opt.first_toggle = Time::ms(60);
    driver.emplace(
        sim, net.source(static_cast<std::size_t>(args.spec.sessions) - 1),
        opt);
  }
  const auto start = std::chrono::steady_clock::now();  // --perf-report
  net.start_all(Time::zero(), Time::zero());

  const exp::Scenario& spec = args.spec;
  const std::string detail =
      spec.kind == exp::Scenario::Kind::kParking
          ? exp::to_string(spec.algorithm) + ", " +
                std::to_string(exp::topology_info(spec).trunks) + " hops"
          : exp::to_string(spec.algorithm) + ", " +
                std::to_string(spec.sessions) + " sessions @ " +
                exp::Table::num(spec.rate_mbps, 0) + " Mb/s";
  exp::print_header("cli:" + args.scenario, detail);
  report_abr(sim, net, bottleneck, args, queue.trace(),
             faults ? &*faults : nullptr);
  if (!spec.abr_params.feedback_decay) {
    std::printf("feedback-loss decay: DISABLED (ablation)\n");
  }
  if (args.adversaries > 0) {
    std::printf("adversaries: %d (%s", args.adversaries,
                args.adversary_mode.c_str());
    if (args.adversary_mode == "partial") {
      std::printf(", compliance %.2f", args.compliance);
    }
    std::printf("), rm cells sanitized %llu\n",
                static_cast<unsigned long long>(net.rm_cells_sanitized()));
  }
  if (args.policing != "off") {
    std::uint64_t checked = 0, nonconforming = 0, tagged = 0, dropped = 0;
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      const atm::Policer* p = net.node(s).policer();
      if (p == nullptr) continue;
      checked += p->cells_checked();
      nonconforming += p->cells_nonconforming();
      tagged += p->cells_tagged();
      dropped += p->cells_dropped();
    }
    std::printf(
        "policing (%s): checked %llu, violations %llu (%.2f%%), tagged %llu, "
        "dropped %llu\n",
        args.policing.c_str(), static_cast<unsigned long long>(checked),
        static_cast<unsigned long long>(nonconforming),
        checked > 0 ? 100.0 * static_cast<double>(nonconforming) /
                          static_cast<double>(checked)
                    : 0.0,
        static_cast<unsigned long long>(tagged),
        static_cast<unsigned long long>(dropped));
  }
  if (spec.overload) {
    const atm::CacCounters cac = net.cac_totals();
    std::printf(
        "admission: admitted %llu, refused %llu (vc-limit %llu, "
        "mcr-budget %llu, buffer %llu, pressure %llu)\n",
        static_cast<unsigned long long>(cac.admitted),
        static_cast<unsigned long long>(cac.refused_total()),
        static_cast<unsigned long long>(cac.refused_vc_limit),
        static_cast<unsigned long long>(cac.refused_mcr_budget),
        static_cast<unsigned long long>(cac.refused_buffer),
        static_cast<unsigned long long>(cac.refused_pressure));
    std::size_t peak = 0;
    auto worst = atm::DegradationLevel::kNormal;
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      const atm::BufferManager* bm = net.node(s).buffer_manager();
      if (bm == nullptr) continue;
      peak += bm->peak_cells_in_use();
      worst = std::max(worst, bm->worst_level());
    }
    std::printf(
        "buffers: in use %zu cells (peak %zu), epd frames %llu, "
        "ppd cells %llu, shed %llu, overflow %llu, worst level %s\n",
        net.buffer_cells_in_use(), peak,
        static_cast<unsigned long long>(net.epd_frames_discarded()),
        static_cast<unsigned long long>(net.cells_ppd_discarded()),
        static_cast<unsigned long long>(net.cells_shed()),
        static_cast<unsigned long long>(net.buffer_overflow_drops()),
        atm::to_string(worst).c_str());
  }
  if (args.perf_report) print_perf(sim, start);
  if (metrics) {
    metrics->finish();
    std::printf("wrote %s (metrics)\n", args.metrics_out.c_str());
  }
  if (events) {
    if (!args.trace_out.empty()) {
      if (!write_file(args.trace_out, events->to_chrome_trace())) return 2;
      std::printf("wrote %s (chrome trace)\n", args.trace_out.c_str());
    }
    if (!args.trace_jsonl.empty()) {
      const std::string jsonl = events->to_jsonl(args.trace_filter);
      if (!write_file(args.trace_jsonl, jsonl)) return 2;
      std::printf("wrote %s (event jsonl)\n", args.trace_jsonl.c_str());
    }
    std::printf("trace: %llu events recorded, %llu overwritten (ring %zu)\n",
                static_cast<unsigned long long>(events->recorded()),
                static_cast<unsigned long long>(events->overwritten()),
                events->capacity());
  }
  return 0;
}

int run_tcp_scenario(const exp::CliArgs& args) {
  exp::TcpScenario spec;
  spec.flows = args.spec.sessions;
  spec.rate = Rate::mbps(args.spec.rate_mbps);
  if (args.algorithm == "phantom") {
    // Factor 10: the upper end of the bench's uf sweep, the most robust
    // setting for small flow counts (see EXPERIMENTS.md, Ablation D).
    spec.policy = [](sim::Simulator& s, Rate rate) {
      return std::make_unique<tcp::SelectiveDiscardPolicy>(s, rate, 10.0);
    };
  }
  spec.settle = args.spec.horizon * 0.3;
  spec.horizon = args.spec.horizon;
  sim::Simulator sim{args.seed};
  const auto start = std::chrono::steady_clock::now();  // --perf-report
  exp::TcpRun run;
  try {
    run = spec.run(sim);
  } catch (const std::invalid_argument& e) {
    // e.g. a --rate-mbps whose packet times sim::Time cannot hold; the
    // ports refuse a rate when built and each packet when sent
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  exp::print_header(
      "cli:tcp", std::string{"Reno over "} +
                     (spec.policy ? "selective discard" : "drop-tail") + ", " +
                     std::to_string(spec.flows) + " flows");
  exp::Table table{{"flow", "goodput (Mb/s)"}};
  for (std::size_t f = 0; f < run.mbps.size(); ++f) {
    table.add_row({std::to_string(f), exp::Table::num(run.mbps[f])});
  }
  table.print();
  std::printf("\nJain %.4f | max queue %zu packets | drops %llu\n", run.jain,
              run.max_queue, static_cast<unsigned long long>(run.drops));
  if (args.perf_report) print_perf(sim, start);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  exp::CliArgs args;
  exp::FlagTable flags = exp::cli_flags(args);
  if (const auto status = exp::parse_flags(flags, argc, argv)) return *status;
  if (const std::string why = check(args, flags); !why.empty()) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }
  if (args.metrics_doc) {
    std::fputs(exp::metrics_reference_markdown().c_str(), stdout);
    return 0;
  }
  return args.scenario == "tcp" ? run_tcp_scenario(args)
                                : run_abr_scenario(args);
}
