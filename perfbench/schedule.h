// Open-loop arrival schedules.
//
// Independent web users do not wait for each other, so the benchmark
// offers load as a Poisson process at a fixed rate: request k is due at
// the sum of k exponential gaps, whatever the server has answered so far.
// A schedule is a pure function of (seed, stream, rate, length), so the
// same seed replays the same offered load on every run.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// SplitMix64: a tiny, well-mixed generator with a portable definition
/// (unlike std::*_distribution, whose output may differ across library
/// versions).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Due times, in nanoseconds from the start of the step, ascending.
/// `stream` separates the steps of one run (each gets its own sequence).
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           std::uint64_t stream,
                                           double rate_rps, double seconds);

}  // namespace perfbench
