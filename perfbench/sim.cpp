#include "sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adapt/controller.h"
#include "adapt/model_swap.h"
#include "alloc_hook.h"
#include "cluster/cluster.h"
#include "core/workload_player.h"
#include "logmining/mining_model.h"
#include "policies/prord.h"
#include "proc_threads.h"
#include "simcore/simulator.h"
#include "stats.h"
#include "trace/generator.h"
#include "trace/site_model.h"
#include "trace/workload.h"

namespace perfbench {

using namespace prord;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct ExpectedRow {
  SimCell cell;
  SimRow row;
};

const ExpectedRow kExpected[] = {
#include "sim_expected.inc"
};

SimRow row_of(const core::ExperimentResult& r) {
  return {r.metrics.completed, r.throughput_rps(), r.hit_rate(),
          r.dispatch_frequency()};
}

bool nearly_equal(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

bool same_row(const SimRow& a, const SimRow& b) {
  return a.completed == b.completed && nearly_equal(a.rps, b.rps) &&
         nearly_equal(a.hit_rate, b.hit_rate) &&
         nearly_equal(a.dispatch, b.dispatch);
}

std::string describe(const SimRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "completed=%llu rps=%.17g hit=%.17g dispatch=%.17g",
                static_cast<unsigned long long>(r.completed), r.rps,
                r.hit_rate, r.dispatch);
  return buf;
}

const char* cell_name(SimCell cell) {
  return cell == SimCell::kPaper ? "paper" : "drift";
}

// ---------------------------------------------------------------------------
// Traced re-assembly: the layers of run_experiment, timed from outside.
// ---------------------------------------------------------------------------

/// Times every AdaptationHooks call the policy makes into the controller.
class TimedHooks final : public policies::AdaptationHooks {
 public:
  explicit TimedHooks(policies::AdaptationHooks& inner) : inner_(inner) {}
  void on_request(const trace::Request& req) override {
    const std::int64_t t0 = ns_now();
    inner_.on_request(req);
    ns += ns_now() - t0;
  }
  void on_prediction(bool correct) override {
    const std::int64_t t0 = ns_now();
    inner_.on_prediction(correct);
    ns += ns_now() - t0;
  }
  void on_prefetch_issued() override {
    const std::int64_t t0 = ns_now();
    inner_.on_prefetch_issued();
    ns += ns_now() - t0;
  }
  void on_prefetch_used() override {
    const std::int64_t t0 = ns_now();
    inner_.on_prefetch_used();
    ns += ns_now() - t0;
  }
  std::int64_t ns = 0;

 private:
  policies::AdaptationHooks& inner_;
};

/// Times the policy's per-request calls. Hook time spent inside a call is
/// the adaptation layer's, so it is taken out: route_ns and notify_ns are
/// the policy's self time.
class TimedPolicy final : public policies::DistributionPolicy {
 public:
  TimedPolicy(policies::DistributionPolicy& inner, const std::int64_t& hook_ns)
      : inner_(inner), hook_ns_(hook_ns) {}
  std::string_view name() const override { return inner_.name(); }
  void start(cluster::Cluster& c) override { inner_.start(c); }
  void finish(cluster::Cluster& c) override { inner_.finish(c); }
  void reset_counters() override { inner_.reset_counters(); }
  policies::RouteDecision route(policies::RouteContext& ctx,
                                cluster::Cluster& c) override {
    const std::int64_t t0 = ns_now(), h0 = hook_ns_;
    const policies::RouteDecision d = inner_.route(ctx, c);
    route_ns += ns_now() - t0 - (hook_ns_ - h0);
    return d;
  }
  void on_routed(const trace::Request& req, policies::ServerId s,
                 cluster::Cluster& c) override {
    const std::int64_t t0 = ns_now(), h0 = hook_ns_;
    inner_.on_routed(req, s, c);
    notify_ns += ns_now() - t0 - (hook_ns_ - h0);
  }
  void on_complete(const trace::Request& req, policies::ServerId s,
                   cluster::Cluster& c) override {
    const std::int64_t t0 = ns_now(), h0 = hook_ns_;
    inner_.on_complete(req, s, c);
    notify_ns += ns_now() - t0 - (hook_ns_ - h0);
  }
  std::int64_t route_ns = 0;
  std::int64_t notify_ns = 0;

 private:
  policies::DistributionPolicy& inner_;
  const std::int64_t& hook_ns_;
};

struct SimLayers {
  SimRow row;
  std::int64_t play_ns = 0;
  std::int64_t route_ns = 0;
  std::int64_t notify_ns = 0;
  std::int64_t hook_ns = 0;
  std::uint64_t played = 0;  ///< warm-up plus measured requests
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;  ///< this thread's allocations inside the plays
  std::uint64_t remines = 0;
};

/// run_experiment for the configurations the benchmark pins (no faults,
/// no observability export, no oracle), with the policy and adaptation
/// hooks wrapped in timing decorators. Mirrors core/experiment.cpp step by
/// step; the caller checks that its row equals run_experiment's.
SimLayers play_traced(const core::ExperimentConfig& config) {
  const trace::SiteModel site = trace::build_site(config.workload.site);
  const trace::GeneratedTrace eval_trace =
      trace::generate_trace(site, config.workload.gen);
  auto train_gen = config.workload.gen;
  train_gen.seed += config.train_seed_offset;
  const trace::GeneratedTrace train_trace =
      trace::generate_trace(site, train_gen);
  trace::Workload train = trace::build_workload(train_trace.records);
  trace::Workload eval =
      trace::build_workload(eval_trace.records, {}, train.files);
  std::shared_ptr<logmining::MiningModel> model;
  if (core::policy_uses_mining(config.policy)) {
    auto mining = config.mining;
    mining.prefetch_threshold = config.prefetch_threshold;
    model = std::make_shared<logmining::MiningModel>(train.requests, mining);
  }

  const std::uint64_t site_bytes = site.total_bytes();
  std::uint64_t capacity =
      config.memory_fraction > 0
          ? static_cast<std::uint64_t>(config.memory_fraction *
                                       static_cast<double>(site_bytes) /
                                       config.params.num_backends)
          : config.params.app_memory_bytes;
  capacity = std::max<std::uint64_t>(capacity, 64 * 1024);
  std::uint64_t pinned = 0;
  if (core::policy_uses_mining(config.policy)) {
    pinned = static_cast<std::uint64_t>(config.pinned_fraction *
                                        static_cast<double>(capacity));
    pinned = std::min(pinned, config.params.pinned_memory_bytes);
  }
  const std::uint64_t demand = capacity - pinned;

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
  cluster::Cluster cl(simulator, config.params, demand, pinned);
  auto inner = core::create_policy(config, model, eval.files, time_scale);
  SimLayers out;
  TimedHooks* hooks = nullptr;
  std::int64_t no_hooks = 0;
  std::unique_ptr<TimedHooks> hooks_owner;
  const auto compress = [time_scale](sim::SimTime t) {
    return std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(static_cast<double>(t) / time_scale));
  };

  core::PlayerOptions player_opts;
  player_opts.time_scale = time_scale;
  const trace::DriftSpec& drift = config.workload.gen.drift;
  const double phase_len_sec =
      drift.phase_length(config.workload.gen.duration_sec);
  if (drift.enabled()) {
    for (std::size_t p = 0; p < drift.phases; ++p)
      player_opts.phase_starts.push_back(
          sim::sec(static_cast<double>(p) * phase_len_sec));
  }

  auto* prord = dynamic_cast<policies::Prord*>(inner.get());
  std::unique_ptr<adapt::ModelSwap> swap;
  std::unique_ptr<adapt::AdaptiveController> controller;
  if (config.adapt.enabled && prord) {
    swap = std::make_unique<adapt::ModelSwap>(model);
    swap->subscribe([prord](const adapt::ModelSwap::Snapshot& snapshot) {
      prord->set_model(snapshot.model);
    });
    adapt::ControllerOptions copts;
    copts.epoch = compress(config.adapt.epoch);
    copts.window = config.adapt.window;
    copts.drift.threshold = config.adapt.drift_threshold;
    copts.drift.horizon = compress(config.adapt.drift_horizon);
    copts.drift.min_samples = config.adapt.drift_min_samples;
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
    copts.predictor_halflife = sim::sec(config.adapt.predictor_halflife_s);
    copts.popularity_halflife = sim::sec(config.adapt.popularity_halflife_s);
    controller = std::make_unique<adapt::AdaptiveController>(simulator, cl,
                                                             *swap, copts);
    hooks_owner = std::make_unique<TimedHooks>(*controller);
    hooks = hooks_owner.get();
    prord->set_adaptation(hooks);
    auto* ctrl = controller.get();
    player_opts.on_drain = [ctrl] { ctrl->pause(); };
  }
  TimedPolicy policy(*inner, hooks != nullptr ? hooks->ns : no_hooks);

  const int tid = current_tid();
  const std::vector<ThreadAllocs> allocs0 = alloc_snapshot();
  if (config.warmup) {
    if (controller) controller->start();
    const std::int64_t t0 = ns_now();
    core::play_workload(simulator, cl, policy, train, player_opts);
    out.play_ns += ns_now() - t0;
    out.played += train.requests.size();
    cl.reset_accounting();
    policy.reset_counters();
    if (controller) {
      swap->publish(model);
      controller->reset_counters();
    }
  }
  if (controller) controller->start();
  const std::int64_t t0 = ns_now();
  core::RunMetrics metrics =
      core::play_workload(simulator, cl, policy, eval, player_opts);
  out.play_ns += ns_now() - t0;
  out.played += eval.requests.size();
  out.allocs = allocs_between(allocs0, alloc_snapshot(), {tid});
  if (controller) controller->pause();

  out.row.completed = metrics.completed;
  out.row.rps = metrics.throughput_rps();
  out.row.hit_rate = metrics.cache.hit_rate();
  out.row.dispatch =
      eval.requests.empty()
          ? 0.0
          : static_cast<double>(metrics.dispatches) /
                static_cast<double>(eval.requests.size());
  out.route_ns = policy.route_ns;
  out.notify_ns = policy.notify_ns;
  out.hook_ns = hooks != nullptr ? hooks->ns : 0;
  out.events = simulator.dispatched_events();
  if (controller) out.remines = controller->finalize_stats().remines;
  return out;
}

}  // namespace

core::ExperimentConfig sim_config(SimCell cell) {
  core::ExperimentConfig config;
  config.policy = core::PolicyKind::kPrord;
  if (cell == SimCell::kPaper) {
    config.workload = trace::cs_dept_spec();
    config.memory_fraction = 0.30;
    config.warmup = true;
  } else {
    config.workload = trace::synthetic_spec();
    config.workload.gen.drift = {.phases = 8, .rotation = 0.6,
                                 .flash_multiplier = 3.0,
                                 .flash_duration_sec = 200.0};
    config.adapt.enabled = true;
    config.adapt.epoch = sim::sec(600.0);
    config.adapt.window = sim::sec(500.0);
    config.adapt.popularity_halflife_s = 1200.0;
  }
  return config;
}

GenMineTimes time_gen_mine(const trace::WorkloadSpec& spec,
                           std::uint64_t train_seed_offset,
                           const logmining::MiningConfig& mining, bool mine) {
  GenMineTimes t;
  const auto t0 = Clock::now();
  const trace::SiteModel site = trace::build_site(spec.site);
  const trace::GeneratedTrace eval_trace = trace::generate_trace(site, spec.gen);
  auto train_gen = spec.gen;
  train_gen.seed += train_seed_offset;
  const trace::GeneratedTrace train_trace =
      trace::generate_trace(site, train_gen);
  const trace::Workload train = trace::build_workload(train_trace.records);
  const trace::Workload eval =
      trace::build_workload(eval_trace.records, {}, train.files);
  t.gen_s = seconds_since(t0);
  if (mine) {
    const auto t1 = Clock::now();
    const logmining::MiningModel model(train.requests, mining);
    t.mine_s = seconds_since(t1);
  }
  return t;
}

SimPart::SimPart(SimCell cell, bool traced)
    : cell_(cell), traced_(traced), config_(sim_config(cell)) {}

void SimPart::repeat() {
  auto mining = config_.mining;
  mining.prefetch_threshold = config_.prefetch_threshold;
  const GenMineTimes t =
      time_gen_mine(config_.workload, config_.train_seed_offset, mining,
                    core::policy_uses_mining(config_.policy));
  setup_s_.push_back(t.gen_s + t.mine_s);
  gen_s_.push_back(t.gen_s);
  mine_s_.push_back(t.mine_s);

  // run_experiment is single-threaded, so its thread's CPU time is its
  // wall time on an unshared machine; on a shared virtual machine it also
  // leaves out time the hypervisor gives to other tenants.
  const auto t0 = Clock::now();
  const std::int64_t cpu0 = thread_cpu_ns();
  const core::ExperimentResult result = core::run_experiment(config_);
  run_s_.push_back(static_cast<double>(thread_cpu_ns() - cpu0) / 1e9);
  wall_s_.push_back(seconds_since(t0));
  rows_.push_back(row_of(result));
}

PartResult SimPart::finish() {
  if (rows_.empty()) repeat();
  PartResult part = std::move(part_);
  part.setup_s = median(setup_s_);

  // The figure cell: every repeat must give the recorded row.
  const ExpectedRow* expected = nullptr;
  for (const ExpectedRow& e : kExpected)
    if (e.cell == cell_) expected = &e;
  if (expected == nullptr)
    part.errors.push_back(std::string("sim: no recorded row for ") +
                          cell_name(cell_));
  for (const SimRow& row : rows_) {
    ++part.attempted;
    if (expected != nullptr && !same_row(row, expected->row)) {
      ++part.failed;
      part.errors.push_back("sim: row " + describe(row) + " != recorded " +
                            describe(expected->row));
    }
  }
  const SimRow& first = rows_.front();
  char note[256];
  std::snprintf(note, sizeof note,
                "sim %s: %s; run_experiment x%zu, median %.3f s CPU, %.3f s "
                "wall",
                cell_name(cell_), describe(first).c_str(), run_s_.size(),
                median(run_s_), median(wall_s_));
  part.notes.push_back(note);
  part.end_to_end.push_back({"run_s", median(run_s_), "s"});
  if (!traced_) return part;

  const core::ExperimentConfig& config = config_;
  const SimLayers layers = play_traced(config);
  ++part.attempted;
  if (!same_row(layers.row, first)) {
    ++part.failed;
    part.errors.push_back("sim trace: re-assembled row " +
                          describe(layers.row) + " != run_experiment " +
                          describe(first));
  }
  const std::int64_t other_ns =
      layers.play_ns - layers.route_ns - layers.notify_ns - layers.hook_ns;
  if (other_ns < 0 || layers.route_ns < 0 || layers.notify_ns < 0)
    part.errors.push_back("sim trace: policy and hook time exceed play time");
  const double per_req =
      layers.played ? 1.0 / static_cast<double>(layers.played) : 0.0;
  std::snprintf(note, sizeof note,
                "sim layers: play %.3f s = route %.3f + notify %.3f + hooks "
                "%.3f + other %.3f (s), %llu requests, %llu events",
                static_cast<double>(layers.play_ns) / 1e9,
                static_cast<double>(layers.route_ns) / 1e9,
                static_cast<double>(layers.notify_ns) / 1e9,
                static_cast<double>(layers.hook_ns) / 1e9,
                static_cast<double>(other_ns) / 1e9,
                static_cast<unsigned long long>(layers.played),
                static_cast<unsigned long long>(layers.events));
  part.notes.push_back(note);
  auto& pl = part.per_layer;
  pl.push_back({"policy.route_ns_per_req",
                static_cast<double>(layers.route_ns) * per_req, "ns"});
  pl.push_back({"policy.notify_ns_per_req",
                static_cast<double>(layers.notify_ns) * per_req, "ns"});
  pl.push_back({"adapt.hooks_ns_per_req",
                static_cast<double>(layers.hook_ns) * per_req, "ns"});
  pl.push_back({"sim.other_ns_per_req", static_cast<double>(other_ns) * per_req,
                "ns"});
  pl.push_back({"simcore.events_per_req",
                static_cast<double>(layers.events) * per_req, "count"});
  pl.push_back({"sim.allocs_per_event",
                layers.events ? static_cast<double>(layers.allocs) /
                                    static_cast<double>(layers.events)
                              : 0.0,
                "count"});
  pl.push_back({"adapt.remines", static_cast<double>(layers.remines), "count"});
  pl.push_back({"sim.trace.gen_s", median(gen_s_), "s"});
  pl.push_back({"sim.logmining.mine_s", median(mine_s_), "s"});
  return part;
}

void print_expected_rows() {
  for (const SimCell cell : {SimCell::kPaper, SimCell::kDrift}) {
    const SimRow r = row_of(core::run_experiment(sim_config(cell)));
    std::printf("    {SimCell::%s, {%llu, %.17g, %.17g, %.17g}},\n",
                cell == SimCell::kPaper ? "kPaper" : "kDrift",
                static_cast<unsigned long long>(r.completed), r.rps,
                r.hit_rate, r.dispatch);
  }
}

}  // namespace perfbench
