#include "proc_threads.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>

namespace perfbench {

std::vector<int> list_tasks() {
  std::vector<int> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    tids.push_back(std::atoi(e->d_name));
  }
  ::closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> new_tasks(const std::vector<int>& before,
                           const std::vector<int>& after) {
  std::vector<int> added;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(added));
  return added;
}

bool read_schedstat(int tid, SchedStat& out) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%d/schedstat", tid);
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  unsigned long long run = 0, wait = 0;
  const int got = std::fscanf(f, "%llu %llu", &run, &wait);
  std::fclose(f);
  if (got != 2) return false;
  out.run_ns = run;
  out.wait_ns = wait;
  return true;
}

SchedStat sum_schedstat(const std::vector<int>& tids) {
  SchedStat sum;
  for (const int tid : tids) {
    SchedStat s;
    if (!read_schedstat(tid, s)) continue;
    sum.run_ns += s.run_ns;
    sum.wait_ns += s.wait_ns;
  }
  return sum;
}

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

bool pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
