#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

bool supports(std::uint64_t n, double q) {
  if (n == 0 || q <= 0.0 || q >= 1.0) return false;
  // Nearest rank r = ceil(q n); the samples beyond it are n - r.
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n - rank >= kTailSamples;
}

double tail_percentile(std::uint64_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999})
    if (supports(n, q)) best = q;
  return best;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  const auto nth = values.begin() +
                   static_cast<std::ptrdiff_t>(std::min(idx, values.size() - 1));
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace perfbench
