// Order statistics for the benchmark's reports.
//
// The percentile rule: a percentile is reported only when at least ten
// samples lie beyond it, so a tail figure always rests on more than a
// handful of outliers. tail_percentile() names the highest such percentile
// for a sample count; every report line states the count it rests on.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::uint64_t kTailSamples = 10;

/// True when `n` samples support percentile `q` (0 < q < 1): at least
/// kTailSamples of them lie beyond it.
bool supports(std::uint64_t n, double q);

/// Highest of p50, p90, p99, p99.9, p99.99 that `n` samples support; 0
/// when even the median is unsupported.
double tail_percentile(std::uint64_t n);

/// Nearest-rank percentile of `values` (copied and partially sorted).
/// Empty input gives 0.
double percentile(std::vector<double> values, double q);

/// Median of `values` (0 for none).
double median(std::vector<double> values);

}  // namespace perfbench
