// The simulator side of a workload: one pinned paper cell run through
// core::run_experiment, exactly as a researcher reproducing a figure runs
// it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "report.h"
#include "trace/models.h"

namespace perfbench {

enum class SimCell {
  kPaper,  ///< Fig. 8 cell: PRORD, cs-dept, 30% memory, warm-up on
  kDrift,  ///< drifting synthetic trace with adaptive re-mining on
};

/// The pinned configuration of a cell. Figure cells are fixed artifacts,
/// so the run's seed does not change them; their result rows are recorded
/// in sim_expected.inc.
prord::core::ExperimentConfig sim_config(SimCell cell);

struct GenMineTimes {
  double gen_s = 0.0;   ///< site, both traces, both workloads
  double mine_s = 0.0;  ///< offline mining of the training workload
};

/// Steps 1-3 of core::run_experiment through the same public functions:
/// site, evaluation and training traces, both workloads, and the offline
/// mining pass when `mine` is set.
GenMineTimes time_gen_mine(const prord::trace::WorkloadSpec& spec,
                           std::uint64_t train_seed_offset,
                           const prord::logmining::MiningConfig& mining,
                           bool mine);

/// The figure row a researcher reads off one cell.
struct SimRow {
  std::uint64_t completed = 0;
  double rps = 0.0;       ///< simulated requests per second
  double hit_rate = 0.0;
  double dispatch = 0.0;  ///< dispatcher contacts per request
};

/// The sim side of one run, measured one repeat at a time so that the
/// repeats spread across the whole run (the live side calls repeat()
/// between its rounds) and a slow spell of the machine moves one sample,
/// not the median.
class SimPart {
 public:
  SimPart(SimCell cell, bool traced);

  /// One set-up timing (steps 1-3) and one run_experiment call, whose row
  /// must equal the recorded one.
  void repeat();

  /// Untraced: set-up time and run_s, medians over the repeats. Traced:
  /// also the per-layer split from a re-assembled run whose row must equal
  /// run_experiment's.
  PartResult finish();

 private:
  SimCell cell_;
  bool traced_;
  prord::core::ExperimentConfig config_;
  PartResult part_;
  std::vector<double> setup_s_, gen_s_, mine_s_, run_s_, wall_s_;
  std::vector<SimRow> rows_;
};

/// Prints the recorded-row table (sim_expected.inc).
void print_expected_rows();

}  // namespace perfbench
