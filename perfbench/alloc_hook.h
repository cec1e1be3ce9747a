// Heap allocations counted per thread.
//
// alloc_hook.cpp replaces the global operator new of the benchmark binary
// (and so of the PRORD libraries linked into it). Each thread counts into
// its own slot, tagged with its kernel thread id; the benchmark maps slots
// to roles (front end, worker, predictor, client) by the thread ids it
// saw each start() call create, so the client's own parsing never lands
// in the server's figure.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct ThreadAllocs {
  int tid = 0;
  std::uint64_t count = 0;
};

/// Every thread that has allocated so far, with its running count.
std::vector<ThreadAllocs> alloc_snapshot();

/// Allocations made by threads in `tids` between two snapshots.
std::uint64_t allocs_between(const std::vector<ThreadAllocs>& before,
                             const std::vector<ThreadAllocs>& after,
                             const std::vector<int>& tids);

}  // namespace perfbench
