// Global operator new/delete interposer for the benchmark binary (the
// pattern bench/perf_core.cpp uses): every heap allocation the simulated
// world makes is counted, so the benchmark can report allocations per UE
// during set-up and per procedure during the measured window.
#pragma once

#include <cstdint>

namespace wholerun {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& o) const {
    return {calls - o.calls, bytes - o.bytes};
  }
};

/// Allocations made by this process so far.
AllocCount alloc_now();

}  // namespace wholerun
