// Determinism contract of the observability exports: the rendered metric,
// time-series, and trace artifacts of a grid are byte-identical whether
// the (cell, replication) tasks ran serially or across worker threads —
// the satellite guarantee that makes `--metrics-out` / `--trace-out`
// diffable in CI (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/obs_export.h"
#include "core/parallel_runner.h"

namespace prord::core {
namespace {

trace::WorkloadSpec small_spec() {
  auto spec = trace::synthetic_spec();
  spec.site.sections = 3;
  spec.site.pages_per_section = 20;
  spec.gen.target_requests = 2000;
  spec.gen.duration_sec = 300;
  return spec;
}

/// A small Fig. 8 cell pair (LARD vs PRORD at one memory point) with every
/// observability collector enabled.
std::vector<ExperimentCell> obs_grid() {
  std::vector<ExperimentCell> cells;
  for (const auto kind : {PolicyKind::kLard, PolicyKind::kPrord}) {
    ExperimentConfig config;
    config.workload = small_spec();
    config.policy = kind;
    config.memory_fraction = 0.20;
    config.obs.metrics = true;
    config.obs.sample_interval = sim::msec(200);
    config.obs.trace_sample_rate = 1.0;
    cells.push_back(ExperimentCell{policy_label(kind), config});
  }
  return cells;
}

struct Artifacts {
  std::string prometheus;
  std::string csv;
  std::string series;
  std::string trace;
};

Artifacts render_all(const std::vector<CellResult>& results) {
  return Artifacts{render_metrics(results, /*csv=*/false),
                   render_metrics(results, /*csv=*/true),
                   render_series_csv(results), render_trace_jsonl(results)};
}

TEST(ObsDeterminism, ExportsAreByteIdenticalAcrossJobCounts) {
  RunnerOptions options;
  options.replications = 2;
  const auto cells = obs_grid();

  options.jobs = 1;
  const Artifacts serial = render_all(run_cells(cells, options));
  ASSERT_FALSE(serial.prometheus.empty());
  ASSERT_FALSE(serial.trace.empty());

  options.jobs = 4;
  const Artifacts parallel = render_all(run_cells(cells, options));
  EXPECT_EQ(serial.prometheus, parallel.prometheus);
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.series, parallel.series);
  EXPECT_EQ(serial.trace, parallel.trace);
}

/// Exported value of the player counter `name`, restricted to the series
/// whose `via` label matches when `via` is given.
double exported_counter(const obs::MetricRegistry& reg, std::string_view name,
                        std::string_view via = {}) {
  for (const auto& [key, m] : reg.series()) {
    if (m.name != name) continue;
    if (via.empty()) return m.value;
    for (const auto& [label, value] : m.labels)
      if (label == "via" && value == via) return m.value;
  }
  ADD_FAILURE() << "missing series " << name << " via=" << via;
  return -1.0;
}

TEST(ObsDeterminism, BatchedMetricsExportIdenticalBytes) {
  // The player's counters flow through obs::MetricBatch epoch flushes.
  // Every exported player counter must equal the run's own RunMetrics
  // count — batching is a cost optimization, never an observable one.
  // This pins the end-of-run tail flush: counts accumulated after the
  // last epoch flush would go missing from the export. The exports must
  // also stay byte-identical at any job count.
  RunnerOptions options;
  options.replications = 2;
  const auto cells = obs_grid();

  options.jobs = 1;
  const auto results = run_cells(cells, options);
  for (const CellResult& cell : results) {
    for (const ExperimentResult& run : cell.replications) {
      SCOPED_TRACE(cell.label);
      const obs::MetricRegistry& reg = run.registry;
      const RunMetrics& m = run.metrics;
      ASSERT_GT(m.completed, 0u);
      EXPECT_EQ(exported_counter(reg, "prord_requests_completed_total"),
                static_cast<double>(m.completed));
      EXPECT_EQ(exported_counter(reg, "prord_requests_failed_total"),
                static_cast<double>(m.failed));
      EXPECT_EQ(exported_counter(reg, "prord_requests_retried_total"),
                static_cast<double>(m.retries));
      EXPECT_EQ(exported_counter(reg, "prord_requests_redispatched_total"),
                static_cast<double>(m.redispatches));
      EXPECT_EQ(exported_counter(reg, "prord_dispatcher_contacts_total"),
                static_cast<double>(m.dispatches));
      EXPECT_EQ(exported_counter(reg, "prord_tcp_handoffs_total"),
                static_cast<double>(m.handoffs));
      EXPECT_EQ(exported_counter(reg, "prord_backend_forwards_total"),
                static_cast<double>(m.forwards));
      for (unsigned v = 0; v < obs::kNumRouteVia; ++v) {
        const char* via = obs::route_via_name(static_cast<obs::RouteVia>(v));
        EXPECT_EQ(exported_counter(reg, "prord_requests_routed_total", via),
                  static_cast<double>(m.routes_via[v]))
            << "via=" << via;
      }
    }
  }
  const Artifacts serial = render_all(results);
  ASSERT_FALSE(serial.prometheus.empty());

  options.jobs = 4;
  const Artifacts parallel = render_all(run_cells(cells, options));
  EXPECT_EQ(serial.prometheus, parallel.prometheus);
  EXPECT_EQ(serial.csv, parallel.csv);
}

TEST(ObsDeterminism, CollectedCatalogueSpansEverySubsystem) {
  RunnerOptions options;
  options.jobs = 2;
  const auto results = run_cells(obs_grid(), options);
  ASSERT_EQ(results.size(), 2u);

  // The PRORD cell's registry carries the full catalogue: >= 30 distinct
  // names across dispatcher, back-end, cache, prefetch, and replication.
  const auto& reg = results[1].primary().registry;
  EXPECT_GE(reg.distinct_names(), 30u);
  for (const char* name :
       {"prord_requests_completed_total", "prord_dispatcher_contacts_total",
        "prord_backend_requests_served_total", "prord_cache_hits_total",
        "prord_prefetch_issued_total", "prord_replication_rounds_total",
        "prord_response_time_us", "prord_bundle_forwards_total"}) {
    bool found = false;
    for (const auto& [key, m] : reg.series())
      if (m.name == name) {
        found = true;
        break;
      }
    EXPECT_TRUE(found) << "missing metric: " << name;
  }

  // Full-rate tracing yields exactly one span per evaluation request,
  // recorded in completion order, with the per-request timeline ordered
  // arrival <= backend <= completion.
  const auto& prord = results[1].primary();
  EXPECT_EQ(prord.spans.size(), prord.num_requests);
  std::unordered_set<std::uint64_t> seen;
  sim::SimTime prev_done = 0;
  for (const auto& s : prord.spans) {
    EXPECT_TRUE(seen.insert(s.request).second)
        << "request " << s.request << " traced twice";
    EXPECT_GE(s.completion, prev_done);
    prev_done = s.completion;
    EXPECT_LE(s.arrival, s.backend_start);
    EXPECT_LE(s.backend_start, s.completion);
  }

  // Sampling produced per-backend gauge series with monotone timestamps.
  EXPECT_FALSE(prord.series.empty());
  for (const auto& s : prord.series) {
    sim::SimTime prev = -1;
    for (const auto& pt : s.points) {
      EXPECT_GT(pt.at, prev);
      prev = pt.at;
    }
  }
}

TEST(ObsDeterminism, DisabledObsLeavesArtifactsEmpty) {
  // The obs hooks must be pay-for-what-you-use: a run without ObsOptions
  // collects nothing (and, by the invariant tests, perturbs nothing).
  ExperimentConfig config;
  config.workload = small_spec();
  config.policy = PolicyKind::kPrord;
  const ExperimentResult r = run_experiment(config);
  EXPECT_TRUE(r.registry.empty());
  EXPECT_TRUE(r.series.empty());
  EXPECT_TRUE(r.spans.empty());
}

}  // namespace
}  // namespace prord::core
