// LiveCluster: configuration, workload set-up and results of a live
// loopback run.
//
// scale::run_live_sharded (scale/sharded_live.h) is the one assembly: N
// BackendWorker threads, a front end of LiveConfig::shards Distributor
// threads (one, the paper's single front end, by default), each with its
// LiveRouter belief model, and LoadGenerator threads replaying the
// workload; it scrapes /metrics and /slo over a real socket, tears
// everything down and returns a LiveRunResult. This is what `prord_live`
// and the live benches drive (docs/LIVE_CLUSTER.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "logmining/mining_model.h"
#include "net/load_generator.h"
#include "obs/metric_registry.h"
#include "obs/slo_monitor.h"
#include "obs/trace_context.h"
#include "predict/predictor_iface.h"
#include "trace/models.h"
#include "trace/workload.h"

namespace prord::net {

struct LiveConfig {
  core::PolicyKind policy = core::PolicyKind::kPrord;
  std::uint32_t backends = 4;
  /// Total requests the load generator issues (cycling the trace as
  /// needed). 0 = one pass over the workload.
  std::size_t requests = 100'000;
  std::size_t concurrency = 16;
  std::size_t pipeline_depth = 1;
  bool open_loop = false;
  double time_scale = 1.0;  ///< open-loop arrival compression
  std::uint16_t port = 0;   ///< client port; 0 = ephemeral

  // --- Front end (docs/SCALING.md). ---
  /// Distributor shards sharing the client port; 1 is the paper's single
  /// front end (no gossip, no handoff).
  std::uint32_t shards = 1;
  /// Load-gossip cadence / staleness horizon between shard beliefs.
  std::int64_t gossip_interval_us = 2000;
  std::int64_t gossip_staleness_us = 100'000;
  /// Allow SO_REUSEPORT (kernel-spread accepts). When off or unsupported,
  /// shard 0 accepts everything and round-robins fds to its peers.
  bool reuseport = true;
  /// Load-generator threads (each drives requests/N of the total). 0 =
  /// one per shard.
  std::size_t load_threads = 1;

  /// Synthetic workload (ignored when `clf_path` is set).
  trace::WorkloadSpec workload = trace::synthetic_spec();
  /// Optional Common Log Format trace to replay instead.
  std::string clf_path;

  /// Cache sizing, as in the sim experiments: cluster-aggregate fraction
  /// of the site footprint, split across back-ends; a share of each
  /// back-end's budget is reserved for proactive placement.
  double memory_fraction = 0.30;
  double pinned_fraction = 0.25;

  /// PRORD-family knobs. Replication runs on the wall clock here, so the
  /// default period is short enough to fire within bench-length runs.
  sim::SimTime replication_interval = sim::sec(1.0);
  double prefetch_threshold = 0.4;
  std::int64_t idle_timeout_us = 10'000'000;

  /// Live proactive prefetch over sockets (docs/PREDICTOR.md): when on, a
  /// PredictionService runs next to the distributor, fed from the routed
  /// request stream, and confident associations are warmed into the
  /// backend LRUs via X-Prord-Prefetch requests. `predictor.algo` selects
  /// the backend (PRORD graph / Mithril); `predictor.confidence` gates
  /// what gets issued.
  bool prefetch = false;
  predict::PredictorParams predictor{};

  // --- Observability (docs/OBSERVABILITY.md "Live tracing"). ---
  /// Fraction of forwarded requests traced hop-by-hop (0 disables).
  double trace_sample_rate = 0.0;
  std::uint64_t trace_seed = 0x9E3779B97F4A7C15ULL;
  /// Completed spans retained in memory (the rest count as dropped).
  std::size_t max_spans = 262144;
  /// JSONL destination for completed spans; empty keeps them only in
  /// LiveRunResult::spans.
  std::string trace_out;
  obs::SloOptions slo;
  /// Arms the process-wide flight recorder for this run.
  bool flight_recorder = false;
  std::size_t flight_ring_capacity = 4096;
  /// Dump destination for SLO/fault/SIGUSR2 dumps; non-empty implies
  /// flight_recorder.
  std::string flight_dump_path;
};

struct LiveWorkerSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t dynamic_served = 0;
  std::uint64_t preloads = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t prefetch_requests = 0;
  std::uint64_t prefetch_resident = 0;
  std::uint64_t prefetch_loads = 0;
};

/// Per-shard accounting for sharded runs (docs/SCALING.md).
struct LiveShardSnapshot {
  std::uint32_t shard = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t failures = 0;
  std::uint64_t not_found = 0;
  std::uint64_t accepts = 0;   ///< connections this shard accepted itself
  std::uint64_t adopted = 0;   ///< connections received via handoff
  std::uint64_t routed = 0;    ///< this shard's RoutingCore commits
  std::uint64_t trace_spans = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t gossip_publishes = 0;
  std::uint64_t gossip_merges = 0;
  std::uint64_t gossip_peers_skipped = 0;
};

struct LiveRunResult {
  std::string policy;
  std::string workload;
  bool started = false;  ///< false = socket/thread setup failed
  LoadGenResult load;

  // Front end: one snapshot per shard.
  std::uint32_t shard_count = 1;
  bool reuseport_used = false;
  std::vector<LiveShardSnapshot> shards;

  // Distributor-side accounting.
  std::uint64_t dist_requests = 0;
  std::uint64_t dist_responses = 0;
  std::uint64_t dist_failures = 0;
  std::uint64_t dist_not_found = 0;
  std::uint64_t dist_parse_errors = 0;

  // RoutingCore commit counters (the shared sim/live code path).
  std::uint64_t routed = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t forwards = 0;

  std::vector<LiveWorkerSnapshot> workers;
  /// GET /metrics body fetched over a real client socket post-run.
  std::string metrics_scrape;
  /// The same snapshot as a registry (exporters, tests).
  obs::MetricRegistry registry;

  // Observability results.
  std::vector<obs::LiveSpan> spans;  ///< completed live spans, oldest first
  std::uint64_t trace_spans = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t flight_dumps = 0;
  /// GET /slo body fetched over a real client socket while live.
  std::string slo_scrape;
  obs::SloEval slo;  ///< final burn-rate evaluation at teardown

  // Live prefetch results (meaningful when LiveConfig::prefetch was on).
  bool prefetch_enabled = false;
  std::string prefetch_algo;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_responses = 0;
  std::uint64_t prefetch_hits = 0;    ///< client HITs on warmed files
  std::uint64_t prefetch_wasted = 0;  ///< warmed but never client-hit
  predict::PredictorStats predictor;  ///< service-side statistics

  /// Fraction of issued prefetches no client ever consumed.
  double prefetch_waste_ratio() const noexcept {
    return prefetch_issued
               ? static_cast<double>(prefetch_wasted) /
                     static_cast<double>(prefetch_issued)
               : 0.0;
  }

  bool conserved() const noexcept { return load.conserved(); }

  /// Conservation across shards: every client-issued request was parsed
  /// by exactly one shard, and every parsed request was answered
  /// (response, failure reply, or 404).
  bool shard_conserved() const noexcept {
    std::uint64_t parsed = 0, answered = 0;
    for (const LiveShardSnapshot& s : shards) {
      parsed += s.requests;
      answered += s.responses + s.failures + s.not_found;
    }
    return parsed == load.issued && answered == parsed;
  }
  double worker_hit_rate() const noexcept {
    std::uint64_t h = 0, m = 0;
    for (const auto& w : workers) {
      h += w.cache_hits;
      m += w.cache_misses;
    }
    return h + m ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0;
  }
};

/// One-shot GET `target` against 127.0.0.1:`port`; empty string on any
/// failure. Used for /metrics scrapes.
std::string http_get(std::uint16_t port, std::string_view target);

/// Workload/site/model assembly for scale::run_live_sharded (and any
/// caller that builds the front end itself): experiment config,
/// train/eval workloads, cache sizing, and the mining model — everything
/// upstream of sockets and threads.
struct LiveSetup {
  core::ExperimentConfig cfg;
  trace::Workload train;
  trace::Workload eval;
  std::uint64_t site_bytes = 0;
  std::uint64_t capacity = 0;  ///< per-backend cache bytes
  std::uint64_t pinned = 0;    ///< reserved for proactive placement
  std::uint64_t demand = 0;    ///< capacity - pinned
  /// Resolved mining options — sharded runs build one extra MiningModel
  /// per shard from these (PRORD's popularity tracking mutates the model,
  /// so shards must not share one).
  logmining::MiningConfig mining;
  std::shared_ptr<logmining::MiningModel> model;  ///< null for non-mining
  std::string workload_name;
};

/// False when the workload cannot be built (e.g. unreadable clf_path).
bool prepare_live_setup(const LiveConfig& config, LiveSetup& out);

}  // namespace prord::net
