// Microbenchmarks (google-benchmark): cost of the substrate primitives.
// These bound the simulator's capacity and show the controller's O(1)
// per-event cost — the "constant space, constant time" implementation
// claim.
//
// `--json-out=PATH` additionally writes the kernel rows in the compact
// schema the perf-smoke CI job diffs against the checked-in
// BENCH_kernel.json (see bench/check_perf.py). All standard
// google-benchmark flags still apply.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "atm/cell.h"
#include "core/phantom_controller.h"
#include "core/residual_filter.h"
#include "obs/event_log.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "tcp/tcp_sink.h"

namespace {

using namespace phantom;
using sim::Rate;
using sim::Time;

void BM_EventQueueSchedulePop(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    q.schedule(Time::ns(t += 7), [] {});
    if (q.size() > 1000) q.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSchedulePop);

void BM_EventQueueCancel(benchmark::State& state) {
  // O(1) cancel with eager callback release — the timer-churn path
  // (TCP RTO timers, delayed-ACK timers) that used to pay two hash-table
  // touches and kept the capture alive until the tombstone surfaced.
  sim::EventQueue q;
  std::int64_t t = 0;
  for (auto _ : state) {
    const sim::EventId id = q.schedule(Time::ns(t += 7), [] {});
    q.cancel(id);
    if (++t % 64 == 0) {
      // Keep a sprinkling of live events so cancel runs against a
      // non-trivial heap, then drain to bound memory.
      q.schedule(Time::ns(t), [] {});
      if (q.size() > 512) q.pop();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancel);

/// The model idiom after the kernel migration: a pre-bound callable
/// that reschedules itself, never rebuilding a capture list per event
/// (AbrSource pacing, OutputPort transmission, controller ticks all
/// follow this shape).
struct SelfRescheduler {
  sim::Simulator* sim;
  std::uint64_t* count;
  void operator()() const {
    ++*count;
    sim->schedule(Time::ns(10), *this);
  }
};
static_assert(sim::EventQueue::Callback::fits_inline<SelfRescheduler>);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  // Cost of a full schedule->dispatch cycle with a self-rescheduling
  // event, the hot path of every model.
  sim::Simulator sim;
  std::uint64_t count = 0;
  sim.schedule(Time::ns(10), SelfRescheduler{&sim, &count});
  Time horizon = Time::zero();
  for (auto _ : state) {
    horizon += Time::us(10);  // 1000 events per iteration
    sim.run_until(horizon);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(count));
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_SimulatorPayloadDispatch(benchmark::State& state) {
  // A cell-carrying event: the callback holds a 48-byte Cell by value
  // plus a pointer, the payload size the inline-callback budget keeps
  // room for (links no longer put cells in closures; their delay lines
  // hold them). Exercises the inline-capture storage end to end.
  sim::Simulator sim;
  std::uint64_t checksum = 0;
  atm::Cell cell = atm::Cell::data(7);
  Time horizon = Time::zero();
  std::int64_t t = 0;
  for (auto _ : state) {
    horizon += Time::us(1);
    for (int i = 0; i < 100; ++i) {
      cell.vc = static_cast<int>(t++ & 63);
      auto deliver = [&checksum, cell] {
        checksum += static_cast<std::uint64_t>(cell.vc);
      };
      static_assert(sim::EventQueue::Callback::fits_inline<decltype(deliver)>);
      sim.schedule(Time::ns(500), deliver);
    }
    sim.run_until(horizon);
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_SimulatorPayloadDispatch);

void BM_ResidualFilterUpdate(benchmark::State& state) {
  core::ResidualFilter filter{Rate::mbps(150), core::PhantomConfig{}};
  double load = 0;
  for (auto _ : state) {
    load = load > 140e6 ? 0 : load + 1e6;
    benchmark::DoNotOptimize(filter.update(Rate::bps(load)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResidualFilterUpdate);

void BM_PhantomBackwardRm(benchmark::State& state) {
  sim::Simulator sim;
  core::PhantomController ctl{sim, Rate::mbps(150)};
  atm::Cell brm = atm::Cell::forward_rm(1, Rate::mbps(10), Rate::mbps(150));
  brm.kind = atm::CellKind::kBackwardRm;
  for (auto _ : state) {
    brm.er = Rate::mbps(150);
    ctl.on_backward_rm(brm, 10);
    benchmark::DoNotOptimize(brm.er);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhantomBackwardRm);

void BM_TcpSinkInOrder(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t acks = 0;
  tcp::TcpSink sink{sim, 1, [&acks](tcp::Packet) { ++acks; }};
  std::int64_t seq = 0;
  for (auto _ : state) {
    sink.receive_packet(tcp::Packet::data(1, seq, 512));
    seq += 512;
  }
  benchmark::DoNotOptimize(acks);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TcpSinkInOrder);

void BM_EventLogRecord(benchmark::State& state) {
  // Hot-path cost of structured tracing: one fixed-size struct copy
  // into the preallocated ring (see obs/event_log.h). In a
  // PHANTOM_DISABLE_OBS build this measures the compiled-out guard
  // instead, which should be effectively free.
  obs::EventLog log{1 << 12};
  obs::Event e;
  e.kind = obs::EventKind::kCellEnqueue;
  e.node = 0;
  e.port = 0;
  e.vc = 7;
  std::int64_t t = 0;
  for (auto _ : state) {
    e.time = Time::ns(++t);
    e.a = static_cast<double>(t & 1023);
    log.record(e);
  }
  benchmark::DoNotOptimize(log.recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLogRecord);

/// Collects per-benchmark results on top of the normal console output
/// so --json-out can emit the compact machine-readable schema.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double items_per_sec = 0.0;
    double ns_per_iter = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Entry e;
      e.name = run.benchmark_name();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) e.items_per_sec = it->second;
      if (run.iterations > 0) {
        e.ns_per_iter = run.real_accumulated_time * 1e9 /
                        static_cast<double>(run.iterations);
      }
      entries.push_back(std::move(e));
    }
  }

  std::vector<Entry> entries;
};

bool write_json(const std::string& path,
                const std::vector<JsonCollector::Entry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"phantom-bench-micro-v1\",\n");
  std::fprintf(f, "  \"benchmarks\": {\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    std::fprintf(f,
                 "    \"%s\": {\"items_per_sec\": %.6g, \"ns_per_iter\": "
                 "%.6g}%s\n",
                 e.name.c_str(), e.items_per_sec, e.ns_per_iter,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json-out before google-benchmark sees (and rejects) it.
  std::string json_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  JsonCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_out.empty() && !write_json(json_out, reporter.entries)) return 1;
  return 0;
}
