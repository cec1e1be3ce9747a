// Per-thread cost, read from outside the program.
//
// The server's threads are found by the thread ids each start() call adds
// to /proc/self/task; their CPU time and run-queue wait come from
// /proc/self/task/<tid>/schedstat. Nothing inside the program is changed
// or asked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Thread ids of this process, ascending.
std::vector<int> list_tasks();

/// Ids in `after` that are not in `before` (both ascending).
std::vector<int> new_tasks(const std::vector<int>& before,
                           const std::vector<int>& after);

/// One schedstat reading: nanoseconds on a CPU and waiting to run.
struct SchedStat {
  std::uint64_t run_ns = 0;
  std::uint64_t wait_ns = 0;
};

/// False when the thread is gone or schedstat is unavailable.
bool read_schedstat(int tid, SchedStat& out);

/// Sum of schedstat over `tids` (threads that vanished count zero).
SchedStat sum_schedstat(const std::vector<int>& tids);

/// CPU time of the whole process / of the calling thread, in ns.
std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();

/// Kernel thread id of the calling thread.
int current_tid();

/// CPUs the calling thread may run on, ascending.
std::vector<int> allowed_cpus();

/// Restricts the calling thread (and threads it creates afterwards) to
/// `cpus`. False on failure or an empty list.
bool pin_to(const std::vector<int>& cpus);

/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
