// Microbenchmarks (google-benchmark): cost of the substrate primitives.
// These bound the simulator's capacity and show the controller's O(1)
// per-event cost — the "constant space, constant time" implementation
// claim.
//
// The perf-smoke CI job runs it with google-benchmark's own JSON output
// (`--benchmark_out=FILE --benchmark_out_format=json`) and diffs the
// rows against the checked-in BENCH_kernel.json (see bench/check_perf.py).
#include <benchmark/benchmark.h>

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
  Time clock;
  std::int64_t t = 0;
  for (auto _ : state) {
    q.schedule(Time::ns(t += 7), [] {});
    if (q.size() > 1000) q.run_next(Time::max(), clock);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSchedulePop);

void BM_EventQueueCancel(benchmark::State& state) {
  // O(1) cancel with eager callback release — the timer-churn path
  // (TCP RTO timers, delayed-ACK timers) that used to pay two hash-table
  // touches and kept the capture alive until the tombstone surfaced.
  sim::EventQueue q;
  Time clock;
  std::int64_t t = 0;
  for (auto _ : state) {
    const sim::EventId id = q.schedule(Time::ns(t += 7), [] {});
    q.cancel(id);
    if (++t % 64 == 0) {
      // Keep a sprinkling of live events so cancel runs against a
      // non-trivial heap, then drain to bound memory.
      q.schedule(Time::ns(t), [] {});
      if (q.size() > 512) q.run_next(Time::max(), clock);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancel);

/// One of the steady live events next to the re-armed timer below: it
/// runs and files its successor 64 ns later, like a packet hop.
struct ShortHop {
  sim::EventQueue* q;
  const Time* clock;
  void operator()() const { q->schedule(*clock + Time::ns(64), *this); }
};
static_assert(sim::EventQueue::Callback::fits_inline<ShortHop>);

void BM_EventQueueTimerRearm(benchmark::State& state) {
  // The kernel's cancel path under a timer re-filed on every event:
  // each iteration cancels one event and re-files it 1 s ahead, among
  // 64 live events of which one runs. The cancelled events' tombstones
  // never reach the heap top, so without compaction the heap would grow
  // with the iteration count and every sift would walk through them.
  // (sim::Timer, which TCP's timers use, re-arms without a cancel.)
  sim::EventQueue q;
  Time clock;
  for (int i = 0; i < 64; ++i) q.schedule(Time::ns(i), ShortHop{&q, &clock});
  sim::EventId timer;
  for (auto _ : state) {
    q.cancel(timer);
    timer = q.schedule(clock + Time::sec(1), [] {});
    q.run_next(Time::max(), clock);
  }
  benchmark::DoNotOptimize(q.heap_nodes());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueTimerRearm);

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
  // Hot-path cost of structured tracing: a traced port's enqueue record,
  // stamped by its tap and copied into the preallocated ring (see
  // obs/event_log.h).
  obs::EventLog log{1 << 12};
  const obs::Tap tap{&log, 0, 0};
  std::int64_t t = 0;
  for (auto _ : state) {
    ++t;
    tap.record({.time = Time::ns(t),
                .kind = obs::EventKind::kCellEnqueue,
                .vc = 7,
                .a = static_cast<double>(t & 1023)});
  }
  benchmark::DoNotOptimize(log.recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLogRecord);

}  // namespace

BENCHMARK_MAIN();
