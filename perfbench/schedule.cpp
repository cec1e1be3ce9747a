#include "schedule.h"

#include <cmath>

namespace perfbench {

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           std::uint64_t stream,
                                           double rate_rps, double seconds) {
  std::vector<std::int64_t> due;
  if (rate_rps <= 0.0 || seconds <= 0.0) return due;
  SplitMix64 rng(seed * 0x2545F4914F6CDD1DULL + stream * 0x9E3779B97F4A7C15ULL +
                 1);
  const double mean_gap_ns = 1e9 / rate_rps;
  const double end_ns = seconds * 1e9;
  due.reserve(static_cast<std::size_t>(rate_rps * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.uniform()) * mean_gap_ns;
    if (t >= end_ns) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

}  // namespace perfbench
