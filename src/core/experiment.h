// Experiment runner: one call = one cell of a paper table/figure.
//
// Pipeline per run:
//   1. build the site + evaluation trace from a WorkloadSpec,
//   2. generate an independent *training* trace on the same site (the
//      "historical web log" the mining scripts analyze offline),
//   3. mine the training log (MiningModel),
//   4. size the back-end caches as a fraction of the site footprint
//      (Fig. 8's x-axis; default ~30%, the paper's standing assumption),
//   5. compress arrivals until the cluster is saturated and play the
//      evaluation trace under the chosen policy,
//   6. report throughput, response time, dispatch frequency, hit rates.
#pragma once

#include <memory>
#include <string>

#include "adapt/controller.h"
#include "cluster/params.h"
#include "core/workload_player.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "logmining/mining_model.h"
#include "obs/metric_registry.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "policies/lard.h"
#include "trace/models.h"

namespace prord::core {

enum class PolicyKind {
  kWrr,
  kLard,
  kLardReplicated,
  kExtLardPhttp,
  kPress,
  kPrord,
  // Fig. 9 single-enhancement ablations.
  kLardBundle,
  kLardDistribution,
  kLardPrefetchNav,
  /// PRORD minus Algorithm 3 replication: the fault bench's ablation —
  /// without proactive replicas a rejoined server re-warms on demand
  /// misses alone.
  kPrordNoReplication,
};

/// Human-readable policy label (matches the paper's figure legends).
const char* policy_label(PolicyKind kind);

/// True for policies that need the offline mining pass.
bool policy_uses_mining(PolicyKind kind);

/// Observability knobs for one run. Everything keys on simulated time and
/// dense request indices, so enabling any of it never perturbs results
/// and the produced artifacts are byte-identical at any --jobs count.
struct ObsOptions {
  /// Populate ExperimentResult::registry with the instrumented metric
  /// catalogue (see docs/OBSERVABILITY.md).
  bool metrics = false;
  /// Gauge time-series cadence in simulated time; 0 = no sampling.
  sim::SimTime sample_interval = 0;
  /// Share of requests traced into ExperimentResult::spans (0 = off,
  /// 1 = every request). Sampling is a pure hash of the request index.
  double trace_sample_rate = 0.0;
  bool any() const noexcept {
    return metrics || sample_interval > 0 || trace_sample_rate > 0;
  }
};

/// Fault-injection knobs for one run (docs/FAULTS.md). Faults apply to
/// the *measured* run only — the warm-up plays on a healthy cluster.
/// Everything here is denominated in trace wall-clock time and compressed
/// by the run's time_scale alongside the arrivals.
struct FaultOptions {
  /// Explicit schedule spec, e.g. "crash@30s:srv2,restart@45s:srv2"
  /// (grammar in faults/fault_plan.h). Takes precedence over the model.
  std::string plan;
  /// Sample a plan from the MTBF/MTTR model over the trace horizon when
  /// no explicit plan is given.
  bool use_model = false;
  faults::FaultModel model{};

  sim::SimTime heartbeat_interval = sim::sec(1.0);
  std::uint32_t max_retries = 3;
  sim::SimTime retry_backoff = sim::msec(100);
  double rewarm_target_fraction = 0.20;

  bool any() const noexcept { return !plan.empty() || use_model; }
};

/// Online adaptive mining knobs (docs/ADAPTATION.md). Applies only to
/// PRORD-family policies (everything else ignores it). Like the fault
/// knobs, all times here are trace wall-clock and are compressed by the
/// run's time_scale alongside the arrivals; the mining *cost* is likewise
/// compressed, preserving the mining thread's per-epoch occupancy.
struct AdaptOptions {
  /// Master switch for streaming re-mining (epoch timer + sessionizer).
  bool enabled = false;
  /// Scheduled re-mine period.
  sim::SimTime epoch = sim::sec(60.0);
  /// Sliding window the stream sessionizer retains for re-mining.
  /// Windowed by original trace timestamps (never compressed), so the
  /// online miner samples the same wall-clock span regardless of
  /// time_scale or cluster saturation.
  sim::SimTime window = sim::sec(120.0);
  /// Drift trigger: early re-mine when the rolling prediction hit-rate
  /// drops below this. <= 0 leaves only the epoch schedule.
  double drift_threshold = 0.0;
  /// Rolling horizon for the drift hit-rate.
  sim::SimTime drift_horizon = sim::sec(30.0);
  std::size_t drift_min_samples = 50;
  /// Back-end whose CPU the background mining thread shares; -1 runs it
  /// on a dedicated mining node (no serving capacity stolen).
  std::int32_t mining_backend = -1;
  /// Mining cost model (trace wall-clock CPU): fixed + per windowed
  /// request, paid before each re-mined model publishes.
  double mining_cost_base_ms = 50.0;
  double mining_cost_per_request_us = 20.0;
  /// Re-mined models clone the serving predictor (it learns every
  /// transition online); false disables the warm start (retrain each
  /// model from the window alone).
  bool warm_start = true;
  /// Trace-clock halflife applied to the cloned predictor's counts at
  /// re-mine time; 0 (default) keeps all history — measured best, since
  /// coverage loss costs more than staleness for a clone that keeps
  /// learning online.
  double predictor_halflife_s = 0.0;
  /// Trace-clock halflife for the carried popularity counters — the decay
  /// that lets placement and replication follow a drifting hot set
  /// (the tracker's built-in decay runs on the compressed simulation
  /// clock and is effectively inert). 0 keeps all history.
  double popularity_halflife_s = 600.0;
  /// Per-phase oracle (bench upper bound): pre-mine one model per
  /// trace::DriftSpec phase from the training trace and publish each at
  /// its phase boundary, free of mining cost. Ignores `enabled`.
  bool oracle = false;

  bool any() const noexcept { return enabled || oracle; }
};

struct ExperimentConfig {
  trace::WorkloadSpec workload = trace::synthetic_spec();
  PolicyKind policy = PolicyKind::kPrord;
  cluster::ClusterParams params{};
  ObsOptions obs{};
  FaultOptions faults{};
  AdaptOptions adapt{};

  /// Per-back-end cache capacity as a fraction of the trace's total file
  /// footprint; <= 0 uses params.app_memory_bytes verbatim.
  double memory_fraction = 0.30;
  /// Share of that capacity reserved as the pinned (proactive) region for
  /// policies that place content proactively.
  double pinned_fraction = 0.25;

  /// Arrival compression: 0 = auto-scale so the offered load saturates the
  /// cluster at roughly `target_offered_rps`.
  double time_scale = 0.0;
  double target_offered_rps = 20'000.0;

  /// Play the training trace through the cluster first (caches warm up,
  /// the online model adapts), reset all accounting, then measure on the
  /// evaluation trace. This reproduces the paper's steady-state regime
  /// ("~30% of the site in memory yields 85% hit rates with LARD"); turn
  /// it off to study cold-start behaviour.
  bool warmup = true;

  /// Training-trace seed distance from the evaluation trace.
  std::uint64_t train_seed_offset = 1000;
  logmining::MiningConfig mining{};
  policies::LardOptions lard{};
  double prefetch_threshold = 0.4;
  /// Self-tuning Algorithm 2 threshold (extension; see PrordOptions).
  bool adaptive_threshold = false;
  sim::SimTime replication_interval = sim::sec(30.0);
};

struct ExperimentResult {
  std::string policy;
  std::string workload;
  RunMetrics metrics;
  std::uint64_t site_bytes = 0;        ///< trace file footprint
  std::uint64_t cache_bytes = 0;       ///< per-back-end capacity used
  double time_scale = 1.0;
  std::size_t num_requests = 0;
  std::size_t num_files = 0;
  /// Simulator events dispatched over the whole experiment (warm-up and
  /// measured run). bench_perf's events/sec numerator.
  std::uint64_t sim_events = 0;
  /// Wall-clock seconds spent inside the simulation loop (the two
  /// play_workload calls) — bench_perf's events/sec denominator. Excludes
  /// site/trace generation and offline mining, which would dilute the
  /// event-loop rate.
  double sim_wall_seconds = 0.0;

  // PRORD-family introspection (0 for other policies).
  std::uint64_t bundle_forwards = 0;
  std::uint64_t prefetches_triggered = 0;
  std::uint64_t replicas_pushed = 0;
  std::uint64_t rewarm_pushes = 0;
  std::uint64_t prediction_hits = 0;
  std::uint64_t prediction_misses = 0;

  // Online adaptation accounting (all-zero unless adapt was enabled).
  adapt::AdaptStats adapt_stats;

  // Fault-injection accounting (all-zero unless faults were enabled).
  faults::FaultStats fault_stats;
  std::vector<faults::RewarmRecord> rewarms;

  // Observability artifacts (empty unless the matching ObsOptions field
  // was enabled). Collected per run so the parallel runner can merge and
  // export them deterministically in cell order.
  obs::MetricRegistry registry;
  std::vector<obs::Series> series;
  std::vector<obs::RequestSpan> spans;

  double throughput_rps() const { return metrics.throughput_rps(); }
  double hit_rate() const { return metrics.cache.hit_rate(); }
  /// Share of scored predictions the model got right (PRORD-family only).
  double prediction_hit_rate() const {
    const auto n = prediction_hits + prediction_misses;
    return n ? static_cast<double>(prediction_hits) /
                   static_cast<double>(n)
             : 0.0;
  }
  /// Dispatcher contacts per request: Fig. 6's y-axis, normalized.
  double dispatch_frequency() const {
    return num_requests
               ? static_cast<double>(metrics.dispatches) /
                     static_cast<double>(num_requests)
               : 0.0;
  }
};

/// Builds the DistributionPolicy a config names, with every wall-clock
/// policy timer (replica TTL, Algorithm 3's replication period) compressed
/// by `time_scale` alongside the arrivals. `model` may be null for
/// policies that don't mine (policy_uses_mining). Public so the live
/// cluster (src/net/) constructs the *same* policy objects the simulator
/// runs — the routing-parity test depends on this being the single
/// factory.
std::unique_ptr<policies::DistributionPolicy> create_policy(
    const ExperimentConfig& config,
    std::shared_ptr<logmining::MiningModel> model,
    const trace::FileTable& files, double time_scale);

ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace prord::core
