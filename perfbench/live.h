// The live side of a workload: a 1-shard PRORD loopback cluster assembled
// from the public constructors scale::run_live_sharded wires, driven by
// the benchmark's own open-loop client at fixed offered rates.
#pragma once

#include <cstdint>
#include <functional>

#include "report.h"

namespace perfbench {

struct LiveSpec {
  bool cs_dept = false;         ///< cs-dept trace; otherwise the synthetic one
  double memory_fraction = 0.30;
  bool prefetch = false;        ///< prediction service (PRORD graph) on
  double low_rps = 0.0;         ///< near a fifth of 1-shard saturation
  double high_rps = 0.0;        ///< near two thirds of it
  /// Latency limit of the ladder. A step whose client lag alone reaches
  /// it at p99 measured the client, not the server, and is void.
  double p99_limit_ms = 0.0;
};

/// The rate ladder above `high_rps`: rungs kLadderStep apart, up to
/// kLadderTop times the high rate.
inline constexpr double kLadderStep = 1.04;
inline constexpr double kLadderTop = 4.0;

/// Runs set-up, a warm-up and rounds of (low step, high step, ladder
/// climb) for about `seconds` of offered load, calling `between_rounds`
/// before each round while the server is idle. Traced runs add the
/// per-layer split.
PartResult run_live_part(const LiveSpec& spec, std::uint64_t seed,
                         double seconds, bool traced,
                         const std::function<void()>& between_rounds);

}  // namespace perfbench
