// What one part of a run (its live side or its sim side) reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct PartResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines: sample counts, supported percentiles, checks.
  std::vector<std::string> notes;
  /// Output-check and add-up violations; any entry makes the run incorrect.
  std::vector<std::string> errors;
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run could not be measured at all (set-up failed, or
  /// the client fell behind its own schedule at a fixed rate).
  bool valid = true;
};

}  // namespace perfbench
