#include "host_probe.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "timed.h"
#include "workloads.h"

namespace phantom::e2ebench {
namespace {

// The tables are sized past L2, like a simulation's working set, so the
// probe slows when other guests crowd the shared caches. Over ten
// chaos_soak runs, the reported times still rose by 0.45% for every 1%
// the probe rose with a 256 KiB chase and 4096 keys, and by 0.2-0.3%
// with these sizes.
constexpr int kIterations = 40000;
constexpr std::size_t kHeapSize = 1024;      // pending "events"
constexpr std::size_t kChaseSize = 1 << 19;  // 2 MiB of dependent loads
constexpr std::uint32_t kKeys = 32768;       // hash-table entries

/// xorshift64: the probe's own generator, so it shares no code with src/.
std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

struct ProbeState {
  std::vector<std::uint64_t> initial_heap;
  std::vector<std::uint64_t> heap;
  std::vector<std::uint32_t> chase;  ///< one cycle through every slot
  std::unordered_map<std::uint32_t, std::uint64_t> table;

  ProbeState() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < kHeapSize; ++i) {
      initial_heap.push_back(next(x) & 0xffffff);
    }
    std::make_heap(initial_heap.begin(), initial_heap.end(), std::greater<>{});
    heap.reserve(kHeapSize);
    std::vector<std::uint32_t> order(kChaseSize);
    std::iota(order.begin(), order.end(), 0U);
    for (std::size_t i = kChaseSize - 1; i > 0; --i) {
      std::swap(order[i], order[next(x) % (i + 1)]);
    }
    chase.resize(kChaseSize);
    for (std::size_t i = 0; i < kChaseSize; ++i) {
      chase[order[i]] = order[(i + 1) % kChaseSize];
    }
    for (std::uint32_t k = 0; k < kKeys; ++k) table[k * 2654435761U] = next(x);
  }
};

}  // namespace

ProbeTime run_host_probe() {
  static ProbeState s;
  static volatile std::uint64_t sink = 0;
  const std::uint64_t wall0 = steady_ns();
  const double cpu0 = thread_cpu_s();

  s.heap.assign(s.initial_heap.begin(), s.initial_heap.end());
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::uint64_t r = next(x);
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    s.heap.back() += (r & 0xfff) + 1;
    std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    const auto it = s.table.find(static_cast<std::uint32_t>((r >> 20) % kKeys) *
                                 2654435761U);
    acc += it->second;
    at = s.chase[at];
    acc ^= at;
  }
  sink = sink + acc + s.heap.front();

  return {static_cast<double>(steady_ns() - wall0) * 1e-9, thread_cpu_s() - cpu0};
}

}  // namespace phantom::e2ebench
