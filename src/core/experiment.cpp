#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adapt/controller.h"
#include "adapt/model_swap.h"
#include "core/obs_export.h"
#include "obs/sampler.h"
#include "obs/tracer.h"
#include "policies/ext_lard_phttp.h"
#include "policies/press.h"
#include "policies/prord.h"
#include "policies/wrr.h"

namespace prord::core {

const char* policy_label(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kWrr:
      return "WRR";
    case PolicyKind::kLard:
      return "LARD";
    case PolicyKind::kLardReplicated:
      return "LARD/R";
    case PolicyKind::kExtLardPhttp:
      return "Ext-LARD-PHTTP";
    case PolicyKind::kPress:
      return "PRESS";
    case PolicyKind::kPrord:
      return "PRORD";
    case PolicyKind::kLardBundle:
      return "LARD-bundle";
    case PolicyKind::kLardDistribution:
      return "LARD-distribution";
    case PolicyKind::kLardPrefetchNav:
      return "LARD-prefetch-nav";
    case PolicyKind::kPrordNoReplication:
      return "PRORD-norepl";
  }
  return "?";
}

bool policy_uses_mining(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kPrord:
    case PolicyKind::kLardBundle:
    case PolicyKind::kLardDistribution:
    case PolicyKind::kLardPrefetchNav:
    case PolicyKind::kPrordNoReplication:
      return true;
    default:
      return false;
  }
}

namespace {

policies::PrordOptions ablation_options(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kPrord:
      return policies::prord_full_options();
    case PolicyKind::kLardBundle:
      return policies::lard_bundle_options();
    case PolicyKind::kLardDistribution:
      return policies::lard_distribution_options();
    case PolicyKind::kLardPrefetchNav:
      return policies::lard_prefetch_nav_options();
    case PolicyKind::kPrordNoReplication:
      return policies::prord_no_replication_options();
    default:
      throw std::logic_error("ablation_options: not a PRORD-family policy");
  }
}

}  // namespace

std::unique_ptr<policies::DistributionPolicy> create_policy(
    const ExperimentConfig& config,
    std::shared_ptr<logmining::MiningModel> model,
    const trace::FileTable& files, double time_scale) {
  // All wall-clock-denominated policy timers compress with the arrivals.
  auto lard = config.lard;
  lard.replica_ttl = std::max<sim::SimTime>(
      sim::msec(1), static_cast<sim::SimTime>(
                        static_cast<double>(lard.replica_ttl) / time_scale));
  switch (config.policy) {
    case PolicyKind::kWrr:
      return std::make_unique<policies::WeightedRoundRobin>();
    case PolicyKind::kLard:
      return std::make_unique<policies::Lard>(lard);
    case PolicyKind::kLardReplicated: {
      auto opts = lard;
      opts.replication = true;
      return std::make_unique<policies::Lard>(opts);
    }
    case PolicyKind::kExtLardPhttp:
      return std::make_unique<policies::ExtLardPhttp>(lard);
    case PolicyKind::kPress:
      return std::make_unique<policies::Press>();
    default: {
      auto opts = ablation_options(config.policy);
      opts.lard = lard;
      opts.prefetch_threshold = config.prefetch_threshold;
      opts.adaptive_threshold = config.adaptive_threshold;
      // Algorithm 3's period is wall-clock; compress it with the arrivals
      // so a saturation run still sees periodic replication rounds.
      opts.replication_interval = std::max<sim::SimTime>(
          sim::msec(1), static_cast<sim::SimTime>(
                            static_cast<double>(config.replication_interval) /
                            time_scale));
      return std::make_unique<policies::Prord>(std::move(model), files,
                                               std::move(opts));
    }
  }
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  // 1-2. Evaluation and training traces over the same site.
  const trace::SiteModel site = trace::build_site(config.workload.site);
  const trace::GeneratedTrace eval_trace =
      trace::generate_trace(site, config.workload.gen);

  auto train_gen = config.workload.gen;
  train_gen.seed += config.train_seed_offset;
  const trace::GeneratedTrace train_trace =
      trace::generate_trace(site, train_gen);

  trace::Workload train = trace::build_workload(train_trace.records);
  trace::Workload eval = trace::build_workload(eval_trace.records, {},
                                               train.files);

  // 3. Offline mining pass (only billed to policies that use it).
  std::shared_ptr<logmining::MiningModel> model;
  if (policy_uses_mining(config.policy)) {
    auto mining = config.mining;
    mining.prefetch_threshold = config.prefetch_threshold;
    model = std::make_shared<logmining::MiningModel>(train.requests, mining);
  }

  // 4. Cache sizing. memory_fraction is the *cluster-aggregate* share of
  // the website that fits in memory ("about 30% of the website's data can
  // be accommodated in the backend servers' memory"), split evenly across
  // back-ends. The basis is the full site footprint, not just the files a
  // (possibly scaled-down) trace happens to touch.
  const std::uint64_t site_bytes = site.total_bytes();
  std::uint64_t capacity =
      config.memory_fraction > 0
          ? static_cast<std::uint64_t>(config.memory_fraction *
                                       static_cast<double>(site_bytes) /
                                       config.params.num_backends)
          : config.params.app_memory_bytes;
  capacity = std::max<std::uint64_t>(capacity, 64 * 1024);
  std::uint64_t pinned = 0;
  if (policy_uses_mining(config.policy)) {
    pinned = static_cast<std::uint64_t>(config.pinned_fraction *
                                        static_cast<double>(capacity));
    pinned = std::min(pinned, config.params.pinned_memory_bytes);
  }
  const std::uint64_t demand = capacity - pinned;

  // 5. Assemble and run.
  double time_scale = config.time_scale;
  if (time_scale <= 0) {
    const double natural_span = sim::to_seconds(eval.span());
    const double natural_rps =
        natural_span > 0
            ? static_cast<double>(eval.requests.size()) / natural_span
            : 1.0;
    time_scale = std::max(1.0, config.target_offered_rps / natural_rps);
  }

  sim::Simulator simulator;
  double sim_wall_seconds = 0.0;  // wall time inside the two plays
  cluster::Cluster cl(simulator, config.params, demand, pinned);
  auto policy = create_policy(config, model, eval.files, time_scale);

  // Wall-clock knob -> compressed simulation clock (same treatment as
  // replication_interval and the fault timers).
  const auto compress = [time_scale](sim::SimTime t) {
    return std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(static_cast<double>(t) / time_scale));
  };

  PlayerOptions player_opts;
  player_opts.time_scale = time_scale;

  // Per-phase accounting for drifting workloads (trace-clock starts; the
  // player attributes by each request's trace timestamp).
  const trace::DriftSpec& drift = config.workload.gen.drift;
  const double phase_len_sec =
      drift.phase_length(config.workload.gen.duration_sec);
  if (drift.enabled()) {
    for (std::size_t p = 0; p < drift.phases; ++p)
      player_opts.phase_starts.push_back(
          sim::sec(static_cast<double>(p) * phase_len_sec));
  }

  // Online adaptive mining (docs/ADAPTATION.md): live dispatches feed a
  // stream sessionizer; an epoch timer (and optionally the drift monitor)
  // re-mines over the sliding window and publishes through the
  // double-buffered ModelSwap back into the policy.
  auto* prord = dynamic_cast<policies::Prord*>(policy.get());
  std::unique_ptr<adapt::ModelSwap> swap;
  std::unique_ptr<adapt::AdaptiveController> controller;
  if (config.adapt.any() && prord) {
    swap = std::make_unique<adapt::ModelSwap>(model);
    swap->subscribe([prord](const adapt::ModelSwap::Snapshot& snapshot) {
      prord->set_model(snapshot.model);
    });
    adapt::ControllerOptions copts;
    copts.epoch = compress(config.adapt.epoch);
    // The sessionizer windows by original trace timestamps, so the window
    // stays in trace wall-clock — the online miner then shares the offline
    // mining configuration (session splits, popularity halflife) verbatim.
    copts.window = config.adapt.window;
    copts.drift.threshold = config.adapt.drift_threshold;
    copts.drift.horizon = compress(config.adapt.drift_horizon);
    copts.drift.min_samples = config.adapt.drift_min_samples;
    // One bad stretch must not cause a re-mining storm: at most two
    // drift re-mines per scheduled epoch.
    copts.drift.cooldown = std::max<sim::SimTime>(1, copts.epoch / 2);
    copts.mining_backend = config.adapt.mining_backend;
    copts.mining_cost_base =
        compress(sim::msec(config.adapt.mining_cost_base_ms));
    copts.mining_cost_per_request = std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(config.adapt.mining_cost_per_request_us /
                                     time_scale));
    copts.mining = config.mining;
    copts.mining.prefetch_threshold = config.prefetch_threshold;
    copts.warm_start = config.adapt.warm_start;
    // Both halflives are trace clock, like the window.
    copts.predictor_halflife = sim::sec(config.adapt.predictor_halflife_s);
    copts.popularity_halflife = sim::sec(config.adapt.popularity_halflife_s);
    controller = std::make_unique<adapt::AdaptiveController>(
        simulator, cl, *swap, copts);
    prord->set_adaptation(controller.get());
    auto* ctrl = controller.get();
    player_opts.on_drain = [ctrl] { ctrl->pause(); };
  }

  // Oracle mode: pre-mine one model per workload phase from the training
  // trace (the per-phase upper bound the adaptation bench compares to).
  std::vector<std::shared_ptr<logmining::MiningModel>> phase_models;
  if (controller && config.adapt.oracle && drift.enabled()) {
    auto mining = config.mining;
    mining.prefetch_threshold = config.prefetch_threshold;
    for (std::size_t p = 0; p < drift.phases; ++p) {
      const sim::SimTime lo = sim::sec(static_cast<double>(p) *
                                       phase_len_sec);
      const sim::SimTime hi =
          p + 1 < drift.phases
              ? sim::sec(static_cast<double>(p + 1) * phase_len_sec)
              : std::numeric_limits<sim::SimTime>::max();
      const auto first = std::lower_bound(
          train.requests.begin(), train.requests.end(), lo,
          [](const trace::Request& r, sim::SimTime t) { return r.at < t; });
      const auto last = std::lower_bound(
          first, train.requests.end(), hi,
          [](const trace::Request& r, sim::SimTime t) { return r.at < t; });
      if (first == last) {
        phase_models.push_back(model);  // empty slice: keep the full model
        continue;
      }
      phase_models.push_back(std::make_shared<logmining::MiningModel>(
          std::span<const trace::Request>(&*first,
                                          static_cast<std::size_t>(
                                              last - first)),
          mining));
    }
  }

  if (config.warmup) {
    // Warm-up gets no observability hooks: only the measured run is traced
    // and sampled, and metric collection happens after it. The adaptive
    // loop *does* run (online tracking starts with the first request), but
    // its accounting resets with everything else at the boundary.
    if (controller && config.adapt.enabled) controller->start();
    const auto warm_t0 = std::chrono::steady_clock::now();
    play_workload(simulator, cl, *policy, train, player_opts);
    sim_wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      warm_t0)
            .count();
    cl.reset_accounting();
    policy->reset_counters();
    if (controller) {
      // Measurement starts from the offline-mined full-history model (the
      // static baseline): the warm-up's last windowed model is tuned to
      // the *end* of the training log, while the evaluation log restarts
      // at its first phase.
      if (config.adapt.enabled) swap->publish(model);
      controller->reset_counters();
    }
  }

  obs::Tracer tracer(config.obs.trace_sample_rate);
  obs::Sampler sampler(config.obs.sample_interval);
  if (config.obs.sample_interval > 0) register_cluster_probes(sampler, cl);
  if (tracer.enabled()) player_opts.tracer = &tracer;
  if (config.obs.sample_interval > 0) player_opts.sampler = &sampler;

  // Batched hot-path counters: attached after the warm-up (like the tracer
  // and sampler) so only the measured run counts. The batch owns the eight
  // player counter families; collect_run_metrics skips them below.
  obs::MetricBatch batch;
  if (config.obs.metrics) {
    player_opts.counters =
        register_player_counters(batch, std::string(policy->name()));
  }

  // Fault injection hits only the measured run (the warm-up above played
  // on a healthy cluster). Fault times, the detector heartbeat and the
  // client back-off are trace wall-clock quantities — compress them with
  // the arrivals, exactly like replication_interval.
  std::unique_ptr<faults::FaultInjector> injector;
  if (config.faults.any()) {
    faults::FaultPlan plan =
        !config.faults.plan.empty()
            ? faults::parse_fault_plan(config.faults.plan)
            : faults::sample_fault_plan(config.faults.model,
                                        config.params.num_backends,
                                        eval.span());
    plan = plan.scaled(time_scale);
    faults::FaultSessionOptions fault_opts;
    fault_opts.heartbeat_interval = std::max<sim::SimTime>(
        sim::msec(1),
        static_cast<sim::SimTime>(
            static_cast<double>(config.faults.heartbeat_interval) /
            time_scale));
    fault_opts.rewarm_target_fraction = config.faults.rewarm_target_fraction;
    faults::FaultHooks hooks;
    auto* policy_ptr = policy.get();
    auto* cluster_ptr = &cl;
    hooks.server_down = [policy_ptr, cluster_ptr](cluster::ServerId s) {
      policy_ptr->on_server_down(s, *cluster_ptr);
    };
    hooks.server_up = [policy_ptr, cluster_ptr](cluster::ServerId s) {
      policy_ptr->on_server_up(s, *cluster_ptr);
    };
    injector = std::make_unique<faults::FaultInjector>(
        simulator, cl, std::move(plan), fault_opts, std::move(hooks));
    player_opts.max_retries = config.faults.max_retries;
    player_opts.retry_backoff = std::max<sim::SimTime>(
        sim::usec(10),
        static_cast<sim::SimTime>(
            static_cast<double>(config.faults.retry_backoff) / time_scale));
    auto* injector_ptr = injector.get();
    auto prev_drain = std::move(player_opts.on_drain);
    player_opts.on_drain = [injector_ptr,
                            prev_drain = std::move(prev_drain)] {
      injector_ptr->finish();
      if (prev_drain) prev_drain();
    };
    injector->start();
  }

  if (controller) {
    if (config.adapt.oracle && !phase_models.empty())
      controller->schedule_oracle(std::move(phase_models),
                                  compress(sim::sec(phase_len_sec)));
    else if (config.adapt.enabled)
      controller->start();
  }

  const auto play_t0 = std::chrono::steady_clock::now();
  RunMetrics metrics = play_workload(simulator, cl, *policy, eval,
                                     player_opts);
  sim_wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    play_t0)
          .count();
  if (injector) injector->finish();  // idempotent; covers abnormal drains
  if (controller) controller->pause();  // idempotent, same reason

  // 6. Package.
  ExperimentResult result;
  result.policy = std::string(policy->name());
  result.workload = config.workload.name;
  result.metrics = std::move(metrics);
  result.site_bytes = site_bytes;
  result.cache_bytes = capacity;
  result.time_scale = time_scale;
  result.num_requests = eval.requests.size();
  result.num_files = eval.files.count();
  result.sim_events = simulator.dispatched_events();
  result.sim_wall_seconds = sim_wall_seconds;
  if (prord) {
    result.bundle_forwards = prord->bundle_forwards();
    result.prefetches_triggered = prord->prefetches_triggered();
    result.replicas_pushed = prord->replicas_pushed();
    result.rewarm_pushes = prord->rewarm_pushes();
    result.prediction_hits = prord->prediction_hits();
    result.prediction_misses = prord->prediction_misses();
  }
  if (injector) {
    result.fault_stats = injector->stats();
    result.rewarms = injector->rewarms();
  }
  if (controller) result.adapt_stats = controller->finalize_stats();
  if (config.obs.metrics) {
    result.registry.merge(batch.registry());
    collect_run_metrics(result.registry, result.policy, result.metrics, cl,
                        *policy, /*skip_player_counters=*/true);
    if (injector)
      collect_fault_metrics(result.registry, result.policy,
                            result.fault_stats, result.metrics);
    if (controller)
      collect_adapt_metrics(result.registry, result.policy,
                            result.adapt_stats);
  }
  result.series = sampler.take_series();
  result.spans = tracer.take_spans();
  return result;
}

}  // namespace prord::core
