#include "scale/sharded_live.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "net/backend_worker.h"
#include "net/distributor.h"
#include "net/live_router.h"
#include "net/site_store.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "scale/sharded_frontend.h"

namespace prord::scale {
namespace {

/// One backend worker's prord_live_backend_* counters.
void append_backend_metrics(obs::MetricRegistry& reg,
                            const net::BackendWorker& worker) {
  const obs::Labels labels{{"backend", std::to_string(worker.id())}};
  const auto& s = worker.stats();
  reg.counter_add("prord_live_backend_requests_total", labels,
                  static_cast<double>(s.requests.load()));
  reg.counter_add("prord_live_backend_cache_hits_total", labels,
                  static_cast<double>(s.cache_hits.load()));
  reg.counter_add("prord_live_backend_cache_misses_total", labels,
                  static_cast<double>(s.cache_misses.load()));
  reg.counter_add("prord_live_backend_dynamic_total", labels,
                  static_cast<double>(s.dynamic_served.load()));
  reg.counter_add("prord_live_backend_preloads_total", labels,
                  static_cast<double>(s.preloads.load()));
  reg.counter_add("prord_live_backend_bytes_out_total", labels,
                  static_cast<double>(s.bytes_out.load()));
  reg.counter_add("prord_live_backend_prefetch_requests_total", labels,
                  static_cast<double>(s.prefetch_requests.load()));
  reg.counter_add("prord_live_backend_prefetch_resident_total", labels,
                  static_cast<double>(s.prefetch_resident.load()));
  reg.counter_add("prord_live_backend_prefetch_loads_total", labels,
                  static_cast<double>(s.prefetch_loads.load()));
}

/// The prediction-service-side prord_predict_* metrics (feed, mining,
/// table occupancy — not the distributors' prefetch counters).
void append_predictor_service_metrics(obs::MetricRegistry& reg,
                                      const predict::IPredictor& predictor) {
  const predict::PredictorStats ps = predictor.stats();
  reg.set_help("prord_predict_feeds_total",
               "Observations applied by the prediction service");
  reg.counter_add("prord_predict_feeds_total", {},
                  static_cast<double>(ps.feeds));
  reg.counter_add("prord_predict_mine_passes_total", {},
                  static_cast<double>(ps.mine_passes));
  reg.counter_add("prord_predict_predictions_total", {},
                  static_cast<double>(ps.predictions));
  reg.gauge_set("prord_predict_links", static_cast<double>(ps.links));
  reg.set_help("prord_predict_table_rows",
               "Bounded-table occupancy by table");
  reg.gauge_set("prord_predict_table_rows", {{"table", "record"}},
                static_cast<double>(ps.record_rows));
  reg.gauge_set("prord_predict_table_rows", {{"table", "mining"}},
                static_cast<double>(ps.mining_rows));
  reg.gauge_set("prord_predict_table_rows", {{"table", "prefetch"}},
                static_cast<double>(ps.prefetch_rows));
  reg.gauge_set("prord_predict_algo",
                {{"algo", predict::algo_name(predictor.params().algo)}},
                1.0);
}

/// Copies a worker's atomic counters into a snapshot.
net::LiveWorkerSnapshot snapshot_worker(const net::BackendWorker& worker) {
  net::LiveWorkerSnapshot snap;
  const auto& s = worker.stats();
  snap.requests = s.requests.load();
  snap.cache_hits = s.cache_hits.load();
  snap.cache_misses = s.cache_misses.load();
  snap.dynamic_served = s.dynamic_served.load();
  snap.preloads = s.preloads.load();
  snap.bytes_out = s.bytes_out.load();
  snap.prefetch_requests = s.prefetch_requests.load();
  snap.prefetch_resident = s.prefetch_resident.load();
  snap.prefetch_loads = s.prefetch_loads.load();
  return snap;
}

/// Snapshot of everything observable: shard-labeled series plus the
/// aggregates under the names dashboards use. Built by shard `serving`'s
/// /metrics provider on that shard's thread while the run is live (`load`
/// null): the serving shard's RoutingCore and SloMonitor are read
/// directly, a peer's routing counters only through the gossip board.
/// Built once more after teardown (`load` set, every shard thread joined)
/// for LiveRunResult::registry: every RoutingCore is read directly, and
/// `serving` is 0, whose monitor stands in for the SLO gauges as in
/// LiveRunResult::slo.
obs::MetricRegistry build_registry(
    const ShardedFrontend& fe, const std::vector<net::LiveRouter*>& routers,
    const std::vector<net::BackendWorker*>& workers,
    const predict::IPredictor* predictor, std::uint32_t serving,
    const net::LoadGenResult* load) {
  obs::MetricRegistry reg;
  const std::uint32_t n = fe.shards();
  const bool after_run = load != nullptr;

  std::uint64_t requests = 0, responses = 0, failures = 0, not_found = 0;
  std::uint64_t parse_errors = 0, scrapes = 0;
  std::uint64_t trace_spans = 0, trace_dropped = 0, slo_violations = 0;
  std::uint64_t flight_dumps = 0;
  std::uint64_t accepts = 0, bursts = 0, eagain = 0, emfile = 0;
  std::uint64_t handoff = 0, adopted = 0;
  std::uint64_t pf_issued = 0, pf_responses = 0, pf_hits = 0, pf_wasted = 0;
  reg.set_help("prord_live_shard_requests_total",
               "Client requests parsed, by front-end shard");
  for (std::uint32_t s = 0; s < n; ++s) {
    const auto& c = fe.shard(s).counters();
    requests += c.requests.load();
    responses += c.responses.load();
    failures += c.failures.load();
    not_found += c.not_found.load();
    parse_errors += c.parse_errors.load();
    scrapes += c.metrics_scrapes.load();
    trace_spans += c.trace_spans.load();
    trace_dropped += c.trace_dropped.load();
    slo_violations += c.slo_violations.load();
    flight_dumps += c.flight_dumps.load();
    accepts += c.accepts.load();
    bursts += c.accept_bursts.load();
    eagain += c.accept_eagain.load();
    emfile += c.accept_emfile.load();
    handoff += c.handoff_out.load();
    adopted += c.adopted.load();
    pf_issued += c.prefetch_issued.load();
    pf_responses += c.prefetch_responses.load();
    pf_hits += c.prefetch_hits.load();
    pf_wasted += c.prefetch_wasted.load();
    const obs::Labels labels{{"shard", std::to_string(s)}};
    reg.counter_add("prord_live_shard_requests_total", labels,
                    static_cast<double>(c.requests.load()));
    reg.counter_add("prord_live_shard_responses_total", labels,
                    static_cast<double>(c.responses.load()));
    reg.counter_add("prord_live_shard_failures_total", labels,
                    static_cast<double>(c.failures.load()));
    reg.counter_add("prord_live_shard_accepts_total", labels,
                    static_cast<double>(c.accepts.load()));
    reg.counter_add("prord_live_shard_adopted_total", labels,
                    static_cast<double>(c.adopted.load()));
    reg.counter_add("prord_live_shard_trace_spans_total", labels,
                    static_cast<double>(c.trace_spans.load()));
    reg.counter_add("prord_live_shard_slo_violations_total", labels,
                    static_cast<double>(c.slo_violations.load()));
  }

  reg.set_help("prord_live_requests_total",
               "Client requests parsed by the distributor (all shards)");
  reg.counter_add("prord_live_requests_total", {},
                  static_cast<double>(requests));
  reg.counter_add("prord_live_responses_total", {},
                  static_cast<double>(responses));
  reg.counter_add("prord_live_failures_total", {},
                  static_cast<double>(failures));
  reg.counter_add("prord_live_not_found_total", {},
                  static_cast<double>(not_found));
  reg.counter_add("prord_live_parse_errors_total", {},
                  static_cast<double>(parse_errors));
  reg.counter_add("prord_live_metrics_scrapes_total", {},
                  static_cast<double>(scrapes));
  reg.set_help("prord_live_trace_spans_total",
               "Completed live hop spans retained by the distributors");
  reg.counter_add("prord_live_trace_spans_total", {},
                  static_cast<double>(trace_spans));
  reg.counter_add("prord_live_trace_dropped_total", {},
                  static_cast<double>(trace_dropped));
  reg.counter_add("prord_live_slo_violations_total", {},
                  static_cast<double>(slo_violations));
  reg.counter_add("prord_live_flight_dumps_total", {},
                  static_cast<double>(flight_dumps));

  // Accept-path accounting (storms are visible, not silent).
  reg.set_help("prord_live_accepts_total",
               "Connections accepted across all shards");
  reg.counter_add("prord_live_accepts_total", {},
                  static_cast<double>(accepts));
  reg.counter_add("prord_live_accept_bursts_total", {},
                  static_cast<double>(bursts));
  reg.counter_add("prord_live_accept_eagain_total", {},
                  static_cast<double>(eagain));
  reg.counter_add("prord_live_accept_emfile_total", {},
                  static_cast<double>(emfile));
  reg.counter_add("prord_live_handoff_out_total", {},
                  static_cast<double>(handoff));
  reg.counter_add("prord_live_adopted_total", {},
                  static_cast<double>(adopted));

  // Routing commits. A peer's RoutingCore belongs to the peer's thread,
  // so while live its counters come from what it last gossiped. The
  // per-step breakdown is not gossiped: it appears only when every core
  // can be read.
  std::uint64_t routed = 0, dispatches = 0, handoffs = 0, forwards = 0;
  std::array<std::uint64_t, obs::kNumRouteVia> via{};
  bool every_core = true;
  reg.set_help("prord_live_shard_routed_total",
               "RoutingCore commits, by front-end shard");
  for (std::uint32_t s = 0; s < n; ++s) {
    const obs::Labels labels{{"shard", std::to_string(s)}};
    ShardLoadSnapshot snap;
    const bool gossiped = fe.board().read(s, snap);
    if (gossiped) {
      reg.counter_add("prord_scale_gossip_publishes_total", labels,
                      static_cast<double>(snap.version));
    }
    if (after_run || s == serving) {
      const core::RoutingCore& core = routers[s]->core();
      snap.routed = core.routed();
      snap.dispatches = core.dispatches();
      snap.handoffs = core.handoffs();
      snap.forwards = core.forwards();
      const auto& core_via = core.routes_via();
      for (unsigned v = 0; v < obs::kNumRouteVia; ++v) via[v] += core_via[v];
    } else {
      every_core = false;
      if (!gossiped) continue;
    }
    routed += snap.routed;
    dispatches += snap.dispatches;
    handoffs += snap.handoffs;
    forwards += snap.forwards;
    reg.counter_add("prord_live_shard_routed_total", labels,
                    static_cast<double>(snap.routed));
  }
  reg.set_help("prord_live_routed_total",
               "Requests committed through the shared RoutingCore");
  reg.counter_add("prord_live_routed_total", {}, static_cast<double>(routed));
  reg.counter_add("prord_live_dispatches_total", {},
                  static_cast<double>(dispatches));
  reg.counter_add("prord_live_handoffs_total", {},
                  static_cast<double>(handoffs));
  reg.counter_add("prord_live_forwards_total", {},
                  static_cast<double>(forwards));
  if (every_core) {
    for (unsigned v = 0; v < obs::kNumRouteVia; ++v) {
      reg.counter_add(
          "prord_live_routes_via_total",
          {{"via", obs::route_via_name(static_cast<obs::RouteVia>(v))}},
          static_cast<double>(via[v]));
    }
  }

  reg.set_help("prord_scale_shards", "Front-end distributor shard count");
  reg.gauge_set("prord_scale_shards", static_cast<double>(n));
  reg.gauge_set("prord_scale_reuseport", fe.reuseport_used() ? 1.0 : 0.0);

  for (const net::BackendWorker* w : workers) append_backend_metrics(reg, *w);

  // Prediction subsystem (docs/PREDICTOR.md), present when the live
  // prefetch seam is armed.
  if (predictor != nullptr) {
    append_predictor_service_metrics(reg, *predictor);
    reg.set_help("prord_predict_prefetch_issued_total",
                 "Cache-warming requests sent to backend workers");
    reg.counter_add("prord_predict_prefetch_issued_total", {},
                    static_cast<double>(pf_issued));
    reg.counter_add("prord_predict_prefetch_responses_total", {},
                    static_cast<double>(pf_responses));
    reg.set_help("prord_predict_prefetch_hits_total",
                 "Client cache hits on files the front end prefetched");
    reg.counter_add("prord_predict_prefetch_hits_total", {},
                    static_cast<double>(pf_hits));
    reg.counter_add("prord_predict_prefetch_wasted_total", {},
                    static_cast<double>(pf_wasted));
  }

  // Tracing and SLO posture (docs/OBSERVABILITY.md).
  const net::Distributor& dist = fe.shard(serving);
  const net::DistributorObsOptions& obs_opts = dist.obs_options();
  reg.gauge_set("prord_live_trace_sample_rate", obs_opts.trace_sample_rate);

  const obs::SloEval slo = dist.slo().evaluate(dist.elapsed_us());
  reg.set_help("prord_live_slo_burn_rate",
               "Error rate over error budget per rolling window");
  reg.gauge_set("prord_live_slo_burn_rate", {{"window", "short"}},
                slo.short_window.burn_rate);
  reg.gauge_set("prord_live_slo_burn_rate", {{"window", "long"}},
                slo.long_window.burn_rate);
  reg.gauge_set("prord_live_slo_error_rate", {{"window", "short"}},
                slo.short_window.error_rate);
  reg.gauge_set("prord_live_slo_error_rate", {{"window", "long"}},
                slo.long_window.error_rate);
  reg.gauge_set("prord_live_slo_violating", slo.violating ? 1.0 : 0.0);
  reg.gauge_set("prord_live_slo_latency_objective_us",
                static_cast<double>(obs_opts.slo.latency_objective_us));
  reg.gauge_set("prord_live_slo_availability_objective",
                obs_opts.slo.availability_objective);

  if (after_run) {
    reg.counter_add("prord_live_client_issued_total", {},
                    static_cast<double>(load->issued));
    reg.counter_add("prord_live_client_completed_total", {},
                    static_cast<double>(load->completed));
    reg.counter_add("prord_live_client_failed_total", {},
                    static_cast<double>(load->failed));
    reg.gauge_set("prord_live_client_throughput_rps",
                  load->throughput_rps());
    reg.set_help("prord_live_client_latency_us",
                 "Send-to-response wall-clock latency per request");
    reg.stats_merge("prord_live_client_latency_us", {}, load->latency_us);
    if (load->latency_hist.count() > 0)
      reg.histogram_merge("prord_live_client_latency_us_hist", {},
                          load->latency_hist);

    // Post-run only: per-hop latency decomposition over every shard's
    // spans — too heavy for a live scrape.
    reg.set_help("prord_live_hop_us",
                 "Per-hop wall-clock time across sampled live spans");
    for (std::uint32_t s = 0; s < n; ++s) {
      for (const obs::LiveSpan& span : fe.shard(s).spans()) {
        for (unsigned h = 0; h < obs::kNumLiveHops; ++h) {
          reg.stats_add("prord_live_hop_us",
                        {{"hop", obs::live_hop_name(
                                     static_cast<obs::LiveHop>(h))}},
                        static_cast<double>(span.hop_us[h]));
        }
      }
    }
  }
  return reg;
}

/// /slo body: aggregate and per-shard counters from atomics, then the
/// serving shard's own burn-rate evaluation (SloMonitor::to_json's fields)
/// at the top level.
std::string slo_json(const ShardedFrontend& fe, std::uint32_t self) {
  const std::uint32_t n = fe.shards();
  std::uint64_t requests = 0, responses = 0, failures = 0, violations = 0;
  std::string per_shard = "[";
  for (std::uint32_t s = 0; s < n; ++s) {
    const auto& c = fe.shard(s).counters();
    const std::uint64_t sr = c.requests.load();
    const std::uint64_t sp = c.responses.load();
    const std::uint64_t sf = c.failures.load();
    const std::uint64_t sv = c.slo_violations.load();
    requests += sr;
    responses += sp;
    failures += sf;
    violations += sv;
    if (s > 0) per_shard += ',';
    per_shard += "{\"shard\":" + std::to_string(s) +
                 ",\"requests\":" + std::to_string(sr) +
                 ",\"responses\":" + std::to_string(sp) +
                 ",\"failures\":" + std::to_string(sf) +
                 ",\"slo_violations\":" + std::to_string(sv) + "}";
  }
  per_shard += ']';
  // The monitor's JSON is one non-empty object; splice its members in.
  const std::string local = fe.shard(self).slo_json();
  return "{\"shards\":" + std::to_string(n) +
         ",\"serving_shard\":" + std::to_string(self) +
         ",\"aggregate\":{\"requests\":" + std::to_string(requests) +
         ",\"responses\":" + std::to_string(responses) +
         ",\"failures\":" + std::to_string(failures) +
         ",\"slo_violations\":" + std::to_string(violations) +
         "},\"per_shard\":" + per_shard + "," + local.substr(1) + "\n";
}

}  // namespace

net::LiveRunResult run_live_sharded(const net::LiveConfig& config) {
  net::LiveRunResult result;

  net::LiveSetup setup;
  if (!net::prepare_live_setup(config, setup)) return result;
  result.workload = setup.workload_name;
  result.policy = core::policy_label(setup.cfg.policy);
  const std::uint32_t shards = std::max<std::uint32_t>(1, config.shards);
  result.shard_count = shards;

  if (config.flight_recorder || !config.flight_dump_path.empty())
    obs::FlightRecorder::instance().enable(config.flight_ring_capacity);

  // --- Workers (shared by all shards; their stats are atomic). ---
  net::SiteStore store(setup.eval.files);
  std::vector<std::unique_ptr<net::BackendWorker>> workers;
  std::vector<net::BackendWorker*> worker_ptrs;
  workers.reserve(config.backends);
  for (std::uint32_t i = 0; i < config.backends; ++i) {
    workers.push_back(
        std::make_unique<net::BackendWorker>(i, store, setup.capacity));
    if (!workers.back()->start()) {
      for (auto& w : workers) w->stop();
      return result;
    }
    worker_ptrs.push_back(workers.back().get());
  }

  // --- One private belief router per shard. PRORD's policy mutates its
  // mining model (popularity tracking), so every shard past the first
  // builds its own copy from the same training trace: identical priors,
  // independent evolution — the per-shard "PRORD placement view".
  std::vector<std::unique_ptr<net::LiveRouter>> routers;
  std::vector<net::LiveRouter*> router_ptrs;
  routers.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::shared_ptr<logmining::MiningModel> model = setup.model;
    if (s > 0 && setup.model) {
      model = std::make_shared<logmining::MiningModel>(setup.train.requests,
                                                       setup.mining);
    }
    routers.push_back(std::make_unique<net::LiveRouter>(
        setup.cfg, model, setup.eval.files, setup.demand, setup.pinned));
    router_ptrs.push_back(routers.back().get());
    for (std::uint32_t b = 0; b < config.backends; ++b) {
      net::BackendWorker* w = worker_ptrs[b];
      routers.back()->cluster().backend(b).set_proactive_observer(
          [w](trace::FileId file, std::uint32_t bytes, bool pin) {
            w->preload(file, bytes, pin);
          });
    }
  }

  // --- Prediction service: one instance, one link per shard. It learns
  // on a private clone of the offline model, so shard 0's router keeps
  // sole ownership of setup.model.
  std::unique_ptr<predict::IPredictor> predictor;
  if (config.prefetch)
    predictor = predict::make_prediction_service(config.predictor,
                                                 setup.model);

  // --- Sharded front end. ---
  ShardedFrontendOptions fo;
  fo.shards = shards;
  fo.port = config.port;
  fo.allow_reuseport = config.reuseport;
  fo.gossip.interval_us = config.gossip_interval_us;
  fo.gossip.staleness_us = config.gossip_staleness_us;
  fo.obs.trace_sample_rate = config.trace_sample_rate;
  fo.obs.trace_seed = config.trace_seed;
  fo.obs.max_spans = config.max_spans;
  fo.obs.slo = config.slo;
  fo.obs.flight_dump_path = config.flight_dump_path;
  fo.predictor = predictor.get();
  fo.prefetch_min_confidence = config.predictor.confidence;
  fo.prefetch_fanout = config.predictor.max_associations;
  ShardedFrontend fe(router_ptrs, store, worker_ptrs, fo);
  fe.set_providers(
      [&fe, &router_ptrs, &worker_ptrs, &predictor](std::uint32_t s) {
        return [&fe, &router_ptrs, &worker_ptrs, &predictor, s] {
          return obs::to_prometheus(build_registry(
              fe, router_ptrs, worker_ptrs, predictor.get(), s, nullptr));
        };
      },
      [&fe](std::uint32_t s) {
        return [&fe, s] { return slo_json(fe, s); };
      });
  if (!fe.start()) {
    for (auto& w : workers) w->stop();
    return result;
  }
  result.started = true;
  result.reuseport_used = fe.reuseport_used();

  // --- Replay: one load-generator thread per slice of the request
  // budget (a single generator thread saturates near one core and would
  // become the bottleneck it is supposed to create).
  std::size_t load_threads =
      config.load_threads == 0 ? shards : config.load_threads;
  load_threads = std::max<std::size_t>(1, load_threads);
  const std::size_t total_requests = config.requests > 0
                                         ? config.requests
                                         : setup.eval.requests.size();
  load_threads = std::min(load_threads, std::max<std::size_t>(
                                            1, total_requests));
  std::vector<net::LoadGenResult> slices(load_threads);
  {
    std::vector<std::thread> threads;
    threads.reserve(load_threads);
    const auto t_start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < load_threads; ++t) {
      net::LoadGenOptions lg;
      lg.port = fe.port();
      lg.concurrency =
          std::max<std::size_t>(1, config.concurrency / load_threads);
      lg.total_requests = total_requests / load_threads +
                          (t == 0 ? total_requests % load_threads : 0);
      lg.pipeline_depth = config.pipeline_depth;
      lg.open_loop = config.open_loop;
      lg.time_scale = config.time_scale;
      lg.idle_timeout_us = config.idle_timeout_us;
      threads.emplace_back([&setup, lg, &slices, t] {
        net::LoadGenerator gen(setup.eval, lg);
        slices[t] = gen.run();
      });
    }
    for (auto& th : threads) th.join();
    for (const net::LoadGenResult& s : slices) {
      result.load.issued += s.issued;
      result.load.completed += s.completed;
      result.load.failed += s.failed;
      result.load.status_ok += s.status_ok;
      result.load.status_error += s.status_error;
      result.load.bytes_in += s.bytes_in;
      result.load.latency_us.merge(s.latency_us);
      result.load.latency_hist.merge(s.latency_hist);
    }
    result.load.duration_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_start)
            .count();
  }

  // Scrape /metrics and /slo over real sockets while the shards run.
  result.metrics_scrape = net::http_get(fe.port(), "/metrics");
  result.slo_scrape = net::http_get(fe.port(), "/slo");

  fe.stop();  // joins every shard thread; core reads are exact below
  for (auto& w : workers) w->stop();

  // --- Consolidate. ---
  for (std::uint32_t s = 0; s < shards; ++s) {
    const net::LiveShardSnapshot snap = fe.snapshot(s);
    result.shards.push_back(snap);
    result.dist_requests += snap.requests;
    result.dist_responses += snap.responses;
    result.dist_failures += snap.failures;
    result.dist_not_found += snap.not_found;
    const auto& c = fe.shard(s).counters();
    result.dist_parse_errors += c.parse_errors.load();
    result.trace_dropped += c.trace_dropped.load();
    result.flight_dumps += c.flight_dumps.load();
    result.trace_spans += snap.trace_spans;
    result.slo_violations += snap.slo_violations;
    const core::RoutingCore& core = routers[s]->core();
    result.routed += core.routed();
    result.dispatches += core.dispatches();
    result.handoffs += core.handoffs();
    result.forwards += core.forwards();
    for (const obs::LiveSpan& span : fe.shard(s).spans())
      result.spans.push_back(span);
    if (predictor) {
      result.prefetch_issued += c.prefetch_issued.load();
      result.prefetch_responses += c.prefetch_responses.load();
      result.prefetch_hits += c.prefetch_hits.load();
      result.prefetch_wasted += c.prefetch_wasted.load();
    }
  }
  for (const auto& w : workers)
    result.workers.push_back(snapshot_worker(*w));
  if (predictor) {
    result.prefetch_enabled = true;
    result.prefetch_algo = predict::algo_name(config.predictor.algo);
    result.predictor = predictor->stats();
  }
  // Shard 0's monitor stands in for the final burn-rate posture (each
  // shard evaluates only its own traffic; the scrape body carries all).
  result.slo = fe.shard(0).slo().evaluate(fe.shard(0).elapsed_us());

  if (!config.trace_out.empty()) {
    std::ofstream out(config.trace_out, std::ios::trunc);
    for (const obs::LiveSpan& span : result.spans) {
      obs::write_live_span_json(out, span);
      out << '\n';
    }
  }

  result.registry = build_registry(fe, router_ptrs, worker_ptrs,
                                   predictor.get(), 0, &result.load);
  return result;
}

}  // namespace prord::scale
