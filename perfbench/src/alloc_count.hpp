// Heap allocation counting for the benchmark binary. alloc_count.cpp
// replaces the global allocation functions; it is linked into this
// binary only, so the simulator's own tests and tools are unaffected.
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls of any global operator new since the process started. The
/// benchmark is single-threaded, so a plain counter is exact.
std::uint64_t alloc_count();

/// Make a known number of allocations and check that the counter saw
/// exactly that many. False means allocs_per_item cannot be trusted.
bool alloc_self_check();

}  // namespace perfbench
