// Full-stack observability: the event log and registry wired through a
// running network — coverage, determinism, and the allocation-free
// hot-path contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "core/phantom_controller.h"
#include "exp/factories.h"
#include "exp/scenario.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
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

/// Every counter in a registry snapshot, by name.
std::map<std::string, std::uint64_t> registry_counters(
    const obs::Registry& reg, Time now) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream rows{reg.snapshot_csv(now)};
  std::string row;
  while (std::getline(rows, row)) {
    // time_ms,name,type,unit,value
    const std::size_t name = row.find(',') + 1;
    const std::size_t type = row.find(',', name) + 1;
    const std::size_t unit = row.find(',', type) + 1;
    if (row.compare(type, unit - type - 1, "counter") != 0) continue;
    const std::size_t value = row.find(',', unit) + 1;
    out[row.substr(name, type - name - 1)] = std::stoull(row.substr(value));
  }
  return out;
}

/// The same counters read through the components' accessors, under the
/// names AbrNetwork::register_metrics gives them.
std::map<std::string, std::uint64_t> accessor_counters(
    topo::AbrNetwork& net) {
  std::map<std::string, std::uint64_t> out;
  std::map<std::string, int> seen;
  for (std::size_t w = 0; w < net.num_switches(); ++w) {
    const atm::Switch& sw = net.node(w);
    std::string prefix = sw.name();
    if (seen[prefix]++ > 0) prefix += "#" + std::to_string(w);
    out[prefix + ".unrouted_cells"] = sw.unrouted_cells();
    out[prefix + ".rm_cells_sanitized"] = sw.rm_cells_sanitized();
    out[prefix + ".vcs_reaped"] = sw.vcs_reaped();
    const atm::CacCounters& cac = sw.cac_counters();
    out[prefix + ".cac.admitted"] = cac.admitted;
    out[prefix + ".cac.refused_vc_limit"] = cac.refused_vc_limit;
    out[prefix + ".cac.refused_mcr_budget"] = cac.refused_mcr_budget;
    out[prefix + ".cac.refused_buffer"] = cac.refused_buffer;
    out[prefix + ".cac.refused_pressure"] = cac.refused_pressure;
    if (const atm::BufferManager* bm = sw.buffer_manager()) {
      const std::string b = prefix + ".buffers.";
      out[b + "cells_accepted"] = bm->cells_accepted();
      out[b + "frames_epd_discarded"] = bm->frames_epd_discarded();
      out[b + "cells_ppd_discarded"] = bm->cells_ppd_discarded();
      out[b + "cells_shed"] = bm->cells_shed();
      out[b + "cells_overflow_dropped"] = bm->cells_overflow_dropped();
      out[b + "mcr_protected_cells"] = bm->mcr_protected_cells();
    }
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      const atm::OutputPort& port = sw.port(p);
      const std::string q = prefix + ".port" + std::to_string(p) + ".";
      out[q + "cells_transmitted"] = port.cells_transmitted();
      out[q + "cells_accepted"] = port.cells_accepted();
      out[q + "cells_dropped"] = port.cells_dropped();
      out[q + "clp_cells_dropped"] = port.clp_cells_dropped();
      const atm::PortController& ctl = port.controller();
      if (const atm::WarmStartAudit* audit = ctl.warm_audit()) {
        out[q + "ctl.warm_restarts"] = audit->warm_restarts;
      }
      if (const auto* phantom =
              dynamic_cast<const core::PhantomController*>(&ctl)) {
        out[q + "ctl.intervals"] = phantom->intervals_elapsed();
      }
    }
  }
  for (std::size_t s = 0; s < net.num_sessions(); ++s) {
    const atm::AbrSource& src = net.source(s);
    const std::string q = "session" + std::to_string(s) + ".";
    out[q + "data_cells_sent"] = src.data_cells_sent();
    // Complete frames: the source has no accessor for them, and every
    // frame is frame_cells data cells long.
    out[q + "frames_sent"] =
        src.data_cells_sent() /
        static_cast<std::uint64_t>(src.params().frame_cells);
    out[q + "rm_cells_sent"] = src.rm_cells_sent();
    out[q + "brm_cells_received"] = src.brm_cells_received();
    out[q + "forged_brm_sent"] = src.forged_brm_sent();
  }
  return out;
}

// One armoured parking run, observed three ways that must agree. The
// registry's counters equal the accessors they sample. The event log,
// sized to keep every record, holds one enqueue record per accepted
// cell and one drop record per dropped cell at each port. And at every
// 1 ms monitor tick, each switch's buffer occupancy equals the sum of
// its ports' queues, which is what lets the buffer manager visit only
// the ports that hold cells, while the InvariantMonitor's ledger
// (conservation, queue bounds, the budget) stays clean.
TEST(ObsReconciliationTest, RegistryEventLogAndLedgerAgreeOnArmouredParking) {
  exp::Scenario spec;
  spec.kind = exp::Scenario::Kind::kParking;
  spec.sessions = 4;
  spec.overload = true;
  spec.overload_options.buffer.budget_cells = 96;
  spec.abr_params.frame_cells = 4;
  spec.abr_params.mcr = Rate::mbps(2);
  sim::Simulator sim{5};
  exp::BuiltScenario built = spec.build(sim);
  topo::AbrNetwork& net = built.net;
  obs::EventLog log{1 << 19};
  net.attach_event_log(&log);
  obs::Registry reg;
  net.register_metrics(reg);
  fault::InvariantMonitor monitor{sim, net, Time::ms(1)};

  std::uint64_t ticks = 0;
  std::uint64_t occupancy_breaks = 0;
  std::uint64_t busy_ticks = 0;  // ticks with a cell in some buffer
  std::function<void()> tick = [&] {
    ++ticks;
    for (std::size_t w = 0; w < net.num_switches(); ++w) {
      const atm::Switch& sw = net.node(w);
      std::size_t queued = 0;
      for (std::size_t p = 0; p < sw.num_ports(); ++p) {
        queued += sw.port(p).queue_length();
      }
      const std::size_t in_use = sw.buffer_manager()->cells_in_use();
      if (in_use != queued) ++occupancy_breaks;
      if (in_use > 0) ++busy_ticks;
    }
    if (ticks == 60) {
      EXPECT_EQ(registry_counters(reg, sim.now()), accessor_counters(net))
          << "mid-run, at " << sim.now().to_string();
    }
    sim.schedule(Time::ms(1), [&tick] { tick(); });
  };
  sim.schedule(Time::ms(1), [&tick] { tick(); });
  // The long session turns greedy for 40 ms and sends at PCR into
  // trunks it shares, and the budget is squeezed to a quarter while it
  // does: EPD refuses frames at every switch it crosses, then the
  // network recovers.
  sim.schedule(Time::ms(30), [&net] {
    net.set_session_behavior(0, atm::SourceBehavior::kGreedy);
    net.squeeze_buffers(0.25);
  });
  sim.schedule(Time::ms(70), [&net] {
    net.set_session_behavior(0, atm::SourceBehavior::kCompliant);
    net.squeeze_buffers(1.0);
  });
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(150));

  EXPECT_EQ(ticks, 150u);
  EXPECT_EQ(occupancy_breaks, 0u);
  EXPECT_GT(busy_ticks, 100u);
  EXPECT_TRUE(monitor.violations().empty())
      << monitor.violations().front().invariant << ": "
      << monitor.violations().front().detail;
  EXPECT_EQ(monitor.checks_run(), 150u);

  EXPECT_EQ(registry_counters(reg, sim.now()), accessor_counters(net));

  ASSERT_EQ(log.overwritten(), 0u) << "the log must keep every record";
  std::map<std::pair<int, int>, std::uint64_t> enqueues;
  std::map<std::pair<int, int>, std::uint64_t> drops;
  std::uint64_t enqueue_records = 0;
  std::uint64_t drop_records = 0;
  log.for_each([&](const obs::Event& e) {
    if (e.kind == obs::EventKind::kCellEnqueue) {
      ++enqueues[{e.node, e.port}];
      ++enqueue_records;
    }
    if (e.kind == obs::EventKind::kCellDrop) {
      ++drops[{e.node, e.port}];
      ++drop_records;
    }
  });
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  for (std::size_t w = 0; w < net.num_switches(); ++w) {
    const atm::Switch& sw = net.node(w);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      SCOPED_TRACE("switch " + std::to_string(w) + " port " +
                   std::to_string(p));
      const std::pair<int, int> key{static_cast<int>(w), static_cast<int>(p)};
      EXPECT_EQ(enqueues[key], sw.port(p).cells_accepted());
      EXPECT_EQ(drops[key], sw.port(p).cells_dropped());
      accepted += sw.port(p).cells_accepted();
      dropped += sw.port(p).cells_dropped();
    }
  }
  // No record names a port that does not exist, and the run dropped
  // cells for the drop records to count.
  EXPECT_EQ(enqueue_records, accepted);
  EXPECT_EQ(drop_records, dropped);
  EXPECT_GT(accepted, 100'000u);
  EXPECT_GT(dropped, 100u);
  EXPECT_GT(net.epd_frames_discarded(), 0u);
}

}  // namespace
}  // namespace phantom
