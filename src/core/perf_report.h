// Perf-report model for the BENCH_*.json artifacts (docs/PERF.md).
//
// bench_perf fills one PerfReport per suite ("sim", "live") and renders it
// through util::JsonValue with a STABLE schema — docs/perf_schema.json is
// the contract, tests/core/perf_report_schema_test.cpp enforces it, and
// the CI perf job uploads the files so runs are comparable across
// commits. Schema changes must bump `kPerfSchemaVersion` and update the
// checked-in schema in the same commit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace prord::core {

inline constexpr int kPerfSchemaVersion = 2;

/// One timed scenario run.
struct PerfScenario {
  std::string name;  ///< e.g. "fig8_memory_sweep"
  /// "optimized", or "baseline" for the cell other cells' ratios divide
  /// by (the 1-shard cell of bench_perf's shard sweep; sim reports from
  /// before the count gate also carry baseline rows).
  std::string mode;
  /// Wall-clock bracket (unix epoch ms). Monotonic across the scenario
  /// list — the schema test checks it.
  std::uint64_t t_start_ms = 0;
  std::uint64_t t_end_ms = 0;
  double wall_seconds = 0.0;        ///< whole scenario incl. setup
  double sim_wall_seconds = 0.0;    ///< inside the sim loop; 0 for live
  std::uint64_t sim_events = 0;     ///< 0 for live scenarios
  double events_per_sec = 0.0;      ///< sim_events / sim_wall_seconds
  std::uint64_t requests = 0;
  double requests_per_sec = 0.0;    ///< simulated (sim) or wall (live) rate
  double p50_response_ms = 0.0;
  double p99_response_ms = 0.0;
  std::uint64_t allocations = 0;    ///< heap allocations during the run
  double allocations_per_event = 0.0;
  /// Front-end distributor shards the scenario ran with (schema v2).
  /// 0 for sim scenarios; >= 1 for live ones.
  std::uint32_t shards = 0;
};

/// One named ratio between two cells (e.g. the live tracing tax).
struct PerfRatio {
  std::string name;
  double value = 0.0;
};

struct PerfReport {
  std::string suite;  ///< "sim" | "live"
  std::string git_sha;
  std::uint64_t generated_unix_ms = 0;
  std::vector<PerfScenario> scenarios;
  std::vector<PerfRatio> speedups;
};

/// Report -> JSON document (schema_version, suite, git_sha, timestamps,
/// scenarios[], speedups{}).
util::JsonValue perf_report_to_json(const PerfReport& report);

/// Serialized report (perf_report_to_json().dump()).
std::string render_perf_report(const PerfReport& report);

/// Writes the report to `path`; false (with a stderr note) on I/O failure.
bool write_perf_report(const PerfReport& report, const std::string& path);

/// Commit id for the report: $GITHUB_SHA, else $PRORD_GIT_SHA, else
/// `git rev-parse HEAD` with "-dirty" appended when tracked files differ
/// from it, else "unknown".
std::string detect_git_sha();

/// Wall clock in unix epoch milliseconds.
std::uint64_t unix_now_ms();

}  // namespace prord::core
