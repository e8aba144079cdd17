// Heap-allocation counting for the benchmark binary.
//
// alloc_count.cc replaces the global operator new/delete family; every
// allocation made while `on` is set (the simulate phase only) bumps
// `count`. The benchmark is single-threaded, so plain globals do.
#pragma once

#include <cstdint>

namespace phantom::e2ebench {

struct AllocCounter {
  static inline std::uint64_t count = 0;
  static inline bool on = false;
};

}  // namespace phantom::e2ebench
