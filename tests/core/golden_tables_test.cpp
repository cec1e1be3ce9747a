// Golden-snapshot tests for the paper-figure result tables.
//
// Each test runs a small pinned grid (fixed workload spec, fixed seeds,
// fixed cluster params), renders the fig7/8/9-shaped result table, and
// byte-compares it against a committed golden file in
// tests/core/golden/. The hot-path optimizations (timing-wheel queue,
// pooled records, batched metrics) promise *identical results* — these
// snapshots catch any numeric drift the invariant tests are too coarse
// to see, down to the last rendered digit.
//
// Intentional result changes: regenerate with
//   PRORD_UPDATE_GOLDEN=1 ctest -R GoldenTables
// and commit the updated files with the change that caused them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_runner.h"
#include "util/table.h"

namespace prord::core {
namespace {

std::filesystem::path golden_dir() {
  // __FILE__ is absolute under CMake, so the goldens live next to the
  // test source regardless of the build directory.
  return std::filesystem::path(__FILE__).parent_path() / "golden";
}

trace::WorkloadSpec pinned_spec() {
  auto spec = trace::synthetic_spec();
  spec.site.sections = 4;
  spec.site.pages_per_section = 25;
  spec.gen.target_requests = 3000;
  spec.gen.duration_sec = 300;
  return spec;
}

ExperimentConfig pinned_config(PolicyKind policy, double memory_fraction) {
  ExperimentConfig config;
  config.workload = pinned_spec();
  config.policy = policy;
  config.memory_fraction = memory_fraction;
  return config;
}

std::string render_table(const std::vector<CellResult>& results) {
  util::Table table({"cell", "throughput(req/s)", "hit-rate",
                     "response-p99(ms)", "dispatch-freq"});
  for (const auto& cell : results) {
    const ExperimentResult& r = cell.primary();
    table.add_row(
        {cell.label, util::Table::num(r.throughput_rps(), 1),
         util::Table::num(r.hit_rate(), 4),
         util::Table::num(
             static_cast<double>(r.metrics.response_hist.p99()) / 1000.0, 3),
         util::Table::num(r.dispatch_frequency(), 4)});
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

void check_against_golden(const std::string& name,
                          const std::string& rendered) {
  const auto path = golden_dir() / (name + ".txt");
  if (std::getenv("PRORD_UPDATE_GOLDEN")) {
    std::filesystem::create_directories(golden_dir());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " — run with PRORD_UPDATE_GOLDEN=1 to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), rendered)
      << "table drifted from " << path
      << "; if the change is intentional, regenerate with "
         "PRORD_UPDATE_GOLDEN=1 and commit the new golden";
}

std::vector<CellResult> run_pinned(std::vector<ExperimentCell> cells) {
  RunnerOptions options;
  options.jobs = 1;
  options.replications = 1;
  return run_cells(cells, options);
}

TEST(GoldenTables, Fig7ThroughputByPolicy) {
  std::vector<ExperimentCell> cells;
  for (const auto kind : {PolicyKind::kWrr, PolicyKind::kLard,
                          PolicyKind::kPress, PolicyKind::kPrord})
    cells.push_back({policy_label(kind), pinned_config(kind, 0.30)});
  check_against_golden("fig7_throughput", render_table(run_pinned(cells)));
}

TEST(GoldenTables, Fig8MemorySweep) {
  std::vector<ExperimentCell> cells;
  for (const double fraction : {0.10, 0.20, 0.30})
    for (const auto kind : {PolicyKind::kLard, PolicyKind::kPrord}) {
      std::string label = std::string(policy_label(kind)) + "@" +
                          util::Table::num(fraction, 2);
      cells.push_back({std::move(label), pinned_config(kind, fraction)});
    }
  check_against_golden("fig8_memory_sweep", render_table(run_pinned(cells)));
}

TEST(GoldenTables, Fig9AblationLadder) {
  std::vector<ExperimentCell> cells;
  for (const auto kind :
       {PolicyKind::kLard, PolicyKind::kLardBundle,
        PolicyKind::kLardDistribution, PolicyKind::kLardPrefetchNav,
        PolicyKind::kPrord})
    cells.push_back({policy_label(kind), pinned_config(kind, 0.30)});
  check_against_golden("fig9_ablation", render_table(run_pinned(cells)));
}

// Online re-mining (src/adapt) on a drifting pinned workload. The cells
// cover the warm-started clone with and without predictor aging (aging
// runs age(keep, 1) on the clone), the cold retrain, mining charged to a
// serving back-end, and drift-triggered re-mines, so any change to how a
// re-mined model is cloned, copied, aged or published shows up here.
TEST(GoldenTables, AdaptiveRemine) {
  auto base = pinned_config(PolicyKind::kPrord, 0.30);
  base.workload.gen.drift = {.phases = 4, .rotation = 0.6,
                             .flash_multiplier = 2.0,
                             .flash_duration_sec = 20.0};
  base.adapt.enabled = true;
  base.adapt.epoch = sim::sec(30.0);
  base.adapt.window = sim::sec(60.0);
  base.adapt.popularity_halflife_s = 120.0;

  std::vector<ExperimentCell> cells;
  cells.push_back({"warm", base});
  auto aged = base;
  aged.adapt.predictor_halflife_s = 40.0;
  cells.push_back({"warm+aged", aged});
  auto cold = base;
  cold.adapt.warm_start = false;
  cells.push_back({"cold", cold});
  auto on_backend = aged;
  on_backend.adapt.mining_backend = 1;
  cells.push_back({"warm+aged@backend1", on_backend});
  auto drift = aged;
  drift.adapt.epoch = sim::sec(120.0);
  drift.adapt.drift_threshold = 0.6;
  drift.adapt.drift_horizon = sim::sec(60.0);
  drift.adapt.drift_min_samples = 20;
  cells.push_back({"warm+aged+drift", drift});
  auto markov = drift;
  markov.mining.predictor = logmining::PredictorKind::kMarkov;
  cells.push_back({"markov+aged+drift", markov});
  auto depgraph = drift;
  depgraph.mining.predictor = logmining::PredictorKind::kDependencyGraph;
  cells.push_back({"depgraph+aged+drift", depgraph});

  const auto results = run_pinned(cells);
  util::Table table({"cell", "throughput(req/s)", "hit-rate", "pred-hit",
                     "prefetches", "remines", "drift-remines", "skipped"});
  for (const auto& cell : results) {
    const ExperimentResult& r = cell.primary();
    table.add_row({cell.label, util::Table::num(r.throughput_rps(), 1),
                   util::Table::num(r.hit_rate(), 4),
                   util::Table::num(r.prediction_hit_rate(), 4),
                   std::to_string(r.prefetches_triggered),
                   std::to_string(r.adapt_stats.remines),
                   std::to_string(r.adapt_stats.drift_remines),
                   std::to_string(r.adapt_stats.skipped)});
  }
  std::ostringstream os;
  table.print(os);
  check_against_golden("adaptive_remine", os.str());
}

}  // namespace
}  // namespace prord::core
