// Full-stack observability: the event log and registry wired through a
// running network — coverage, determinism, and the allocation-free
// hot-path contract.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "exp/factories.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "topo/abr_network.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Time;

/// Single-bottleneck stack with the event log attached: the paper's
/// base configuration, small enough for fast tests.
struct Rig {
  explicit Rig(std::uint64_t seed, std::size_t log_capacity = 1 << 14)
      : sim{seed},
        net{sim, exp::make_factory(exp::Algorithm::kPhantom)},
        log{log_capacity} {
    const auto sw = net.add_switch("bottleneck");
    const auto d = net.add_destination(sw, {.rate = Rate::mbps(40)});
    for (int i = 0; i < 3; ++i) net.add_session(sw, {}, d);
    net.attach_event_log(&log);
  }

  void run(Time horizon = Time::ms(120)) {
    net.start_all(Time::zero(), Time::zero());
    sim.run_until(horizon);
  }

  sim::Simulator sim;
  topo::AbrNetwork net;
  obs::EventLog log;
};

std::set<std::string> kinds_in(const std::string& jsonl) {
  std::set<std::string> kinds;
  std::size_t pos = 0;
  const std::string key = "\"kind\":\"";
  while ((pos = jsonl.find(key, pos)) != std::string::npos) {
    pos += key.size();
    kinds.insert(jsonl.substr(pos, jsonl.find('"', pos) - pos));
  }
  return kinds;
}

TEST(ObsIntegrationTest, FullStackRecordsEveryControlLoopCategory) {
  Rig rig{1};
  rig.run();
  const auto kinds = kinds_in(rig.log.to_jsonl());
  EXPECT_TRUE(kinds.count("cell_enqueue")) << rig.log.recorded();
  EXPECT_TRUE(kinds.count("rm_forward"));
  EXPECT_TRUE(kinds.count("rm_backward"));
  EXPECT_TRUE(kinds.count("rate_update"));
  EXPECT_TRUE(kinds.count("source_rate"));
}

TEST(ObsIntegrationTest, SameSeedProducesByteIdenticalJsonl) {
  Rig a{7}, b{7};
  a.run();
  b.run();
  EXPECT_GT(a.log.recorded(), 0u);
  EXPECT_EQ(a.log.to_jsonl(), b.log.to_jsonl());
}

TEST(ObsIntegrationTest, TracingAddsNoInlineCallbackHeapFallbacks) {
  // The kernel's inline-callback budget is the allocation-free contract
  // for the hot path; attaching the event log must not push any model's
  // capture over it.
  const auto before = sim::EventQueue::Callback::heap_fallbacks();
  Rig rig{3};
  rig.run();
  EXPECT_GT(rig.log.recorded(), 0u);
  EXPECT_EQ(sim::EventQueue::Callback::heap_fallbacks(), before);
}

TEST(ObsIntegrationTest, FaultLifecycleIsTraced) {
  Rig rig{5};
  fault::FaultInjector injector{rig.sim, rig.net};
  injector.set_event_log(&rig.log);
  fault::FaultPlan plan;
  plan.outage(fault::dest(0), Time::ms(40), Time::ms(10));
  injector.apply(plan);
  rig.run();
  obs::EventLog::Filter faults;
  faults.category = obs::Category::kFault;
  const auto lines = rig.log.tail_jsonl(10, faults);
  ASSERT_EQ(lines.size(), 3u);  // armed, fired, recovered
  EXPECT_NE(lines[0].find("fault_armed"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("fault_fired"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("fault_recovered"), std::string::npos) << lines[2];
}

TEST(ObsIntegrationTest, RegistryCoversPortsControllersAndSources) {
  Rig rig{1};
  rig.run();
  obs::Registry reg;
  rig.net.register_metrics(reg);
  std::set<std::string> names;
  for (const obs::MetricDef* d : reg.defs()) names.insert(d->name);
  EXPECT_TRUE(names.count("bottleneck.port0.cells_transmitted"));
  EXPECT_TRUE(names.count("bottleneck.port0.queue_cells"));
  EXPECT_TRUE(names.count("bottleneck.port0.ctl.fair_share_mbps"));
  EXPECT_TRUE(names.count("bottleneck.port0.ctl.macr_mbps"));
  EXPECT_TRUE(names.count("bottleneck.active_vcs"));
  EXPECT_TRUE(names.count("session0.acr_mbps"));
  EXPECT_TRUE(names.count("session2.data_cells_sent"));
  // Snapshots carry live simulation state, not zeros.
  const std::string snap = reg.snapshot_json(rig.sim.now());
  EXPECT_NE(snap.find("\"name\":\"session0.data_cells_sent\",\"id\":"
                      "\"source.data_cells_sent\""),
            std::string::npos);
}

TEST(ObsIntegrationTest, DuplicateSwitchNamesDeduplicateByIndex) {
  sim::Simulator sim{1};
  topo::AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto s0 = net.add_switch("sw");
  net.add_switch("sw");
  const auto d = net.add_destination(s0);
  net.add_session(s0, {}, d);
  obs::Registry reg;
  net.register_metrics(reg);  // must not throw duplicate-name
  std::set<std::string> names;
  for (const obs::MetricDef* def : reg.defs()) names.insert(def->name);
  EXPECT_TRUE(names.count("sw.active_vcs"));
  EXPECT_TRUE(names.count("sw#1.active_vcs"));
}

TEST(ObsIntegrationTest, SessionsAddedAfterAttachAreTraced) {
  // A VC-storm fault adds sessions mid-run; their sources must inherit
  // the event log.
  Rig rig{2};
  const auto shape = rig.net.session_shape(0);
  rig.net.start_all(Time::zero(), Time::zero());
  rig.sim.run_until(Time::ms(20));
  const auto outcome =
      rig.net.try_add_session(shape.ingress, shape.path, shape.dest);
  ASSERT_TRUE(outcome.admitted);
  rig.net.source(outcome.session).start(rig.sim.now());
  rig.sim.run_until(Time::ms(120));
  obs::EventLog::Filter f;
  f.vc = rig.net.session_vc(outcome.session);
  f.category = obs::Category::kController;
  EXPECT_FALSE(rig.log.tail_jsonl(5, f).empty());
}

}  // namespace
}  // namespace phantom
