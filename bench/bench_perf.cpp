// Hot-path perf harness: the gate behind BENCH_sim.json / BENCH_live.json.
//
// Unlike the figure benches (which reproduce paper *results*), this binary
// measures the simulator itself. Each pinned sim scenario runs once on the
// production stack (timing-wheel event queue, inline callables, pooled
// events/records, batched metrics, incremental top-k replication
// planning). The report records events/sec, req/s, p50/p99 response
// times, and allocations/event from the counting allocator below.
//
// The gate is the allocation count, not a wall-clock ratio: a scenario's
// allocations are identical in every run of one build, and each hot-path
// mechanism above saves a known share of them, so losing any one of them
// pushes its cells past the constant allocs/event ceiling in kSimCases.
// bench_perf exits 1 when a cell exceeds its ceiling (docs/PERF.md lists
// which regression raises which cell by how much).
//
// The live section (skipped by --skip-live) writes BENCH_live.json: the
// loopback burst with tracing off and on, the prefetch A/B, and the shard
// sweep at 1, 2 and 4 shards. It exits 1 when a live cell does not start
// or loses a request, when the burst or the miss-heavy prefetch-off cell
// allocates above its allocs/request ceiling, and when each of 4 shards
// does less than 0.3 of the lone shard's work on a host with at least 4
// cores (docs/SCALING.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/perf_report.h"
#include "scale/sharded_live.h"
#include "trace/models.h"
#include "zoo/scenario_registry.h"

// ---------------------------------------------------------------------------
// Counting allocator hook: global new/delete overrides local to this binary.
// Counts every heap allocation on the process; scenarios snapshot the
// counter around their run, so the figure includes everything the run
// allocates (events, closures, records, strings) — which is the point.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace prord;

// ---------------------------------------------------------------------------
// Pinned scenarios. Configs must not drift run-to-run — trajectory entries
// in docs/PERF.md are only comparable if the workload stays fixed.
// ---------------------------------------------------------------------------

core::ExperimentConfig fig8_config() {
  // One cell of the Fig. 8 memory sweep: the paper's standing assumption
  // (~30% of the site in memory) under PRORD on the CS-department trace.
  core::ExperimentConfig config;
  config.workload = trace::cs_dept_spec();
  config.policy = core::PolicyKind::kPrord;
  config.memory_fraction = 0.30;
  config.obs.metrics = true;
  return config;
}

core::ExperimentConfig drift_config() {
  // bench_adaptation's drift-harsh/adaptive cell: online re-mining keeps
  // the epoch timer, sessionizer, and model publishes on the hot path.
  core::ExperimentConfig config;
  config.workload = trace::synthetic_spec();
  config.workload.gen.drift = {.phases = 8, .rotation = 0.6,
                               .flash_multiplier = 3.0,
                               .flash_duration_sec = 200.0};
  config.policy = core::PolicyKind::kPrord;
  config.obs.metrics = true;
  config.adapt.enabled = true;
  config.adapt.epoch = sim::sec(600.0);
  config.adapt.window = sim::sec(500.0);
  config.adapt.popularity_halflife_s = 1200.0;
  return config;
}

// Workload-zoo scenarios (src/zoo/): the three builtin profiles as pinned
// perf cells. Same determinism rule as above — the builtins are frozen
// artifacts (examples/profiles/*.json, CI-diffed), so the cells stay
// comparable across runs. Requests are capped so each cell costs roughly
// one fig8 cell.
core::ExperimentConfig zoo_config(const char* name) {
  core::ExperimentConfig config;
  config.workload = zoo::to_workload_spec(zoo::builtin_profile(name));
  config.workload.gen.target_requests =
      std::min<std::size_t>(config.workload.gen.target_requests, 30'000);
  config.policy = core::PolicyKind::kPrord;
  config.obs.metrics = true;
  return config;
}

core::ExperimentConfig zoo_cdn_flash_config() {
  return zoo_config("cdn-flash");
}
core::ExperimentConfig zoo_api_gateway_config() {
  return zoo_config("api-gateway");
}
core::ExperimentConfig zoo_ecommerce_config() {
  return zoo_config("ecommerce-diurnal");
}

core::ExperimentConfig fault_config() {
  // bench_fault_tolerance's pinned schedule: crash srv1 an hour in,
  // restart an hour later — exercises retries, heartbeats, and re-warm.
  core::ExperimentConfig config;
  config.workload = trace::cs_dept_spec();
  config.policy = core::PolicyKind::kPrord;
  config.obs.metrics = true;
  config.faults.plan = "crash@3600s:srv1,restart@7200s:srv1";
  config.faults.heartbeat_interval = sim::sec(30.0);
  config.faults.max_retries = 3;
  return config;
}

// Live loopback burst: small enough to finish in seconds, large enough
// that socket + router throughput dominates setup.
net::LiveConfig live_config() {
  net::LiveConfig config;
  config.policy = core::PolicyKind::kPrord;
  config.backends = 4;
  config.requests = 30'000;
  config.concurrency = 16;
  config.workload = trace::synthetic_spec();
  return config;
}

core::PerfScenario run_sim_scenario(const std::string& name,
                                    const core::ExperimentConfig& config) {
  core::PerfScenario s;
  s.name = name;
  s.mode = "optimized";
  std::fprintf(stderr, "[bench_perf] %s...\n", name.c_str());

  const std::uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  s.t_start_ms = core::unix_now_ms();
  const auto t0 = std::chrono::steady_clock::now();
  const core::ExperimentResult result = core::run_experiment(config);
  const auto t1 = std::chrono::steady_clock::now();
  s.t_end_ms = core::unix_now_ms();
  s.allocations =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs0;

  s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  s.sim_wall_seconds = result.sim_wall_seconds;
  s.sim_events = result.sim_events;
  // Events/sec over the sim loop only: setup (site/trace generation,
  // offline mining) would dilute the event-loop rate.
  s.events_per_sec = s.sim_wall_seconds > 0
                         ? static_cast<double>(s.sim_events) /
                               s.sim_wall_seconds
                         : 0.0;
  s.requests = result.num_requests;
  s.requests_per_sec = result.throughput_rps();  // simulated-time rate
  s.p50_response_ms =
      static_cast<double>(result.metrics.response_hist.p50()) / 1000.0;
  s.p99_response_ms =
      static_cast<double>(result.metrics.response_hist.p99()) / 1000.0;
  s.allocations_per_event =
      s.sim_events ? static_cast<double>(s.allocations) /
                         static_cast<double>(s.sim_events)
                   : 0.0;
  return s;
}

struct LiveCell {
  core::PerfScenario scenario;
  net::LiveRunResult result;
};

/// Every live cell runs through here: one loopback run of `config`. A run
/// that did not start, or lost a request on the client side or across
/// shards, exits bench_perf with status 1, so no cell is written with zero
/// throughput and no ratio gate is skipped on one.
LiveCell run_live_cell(const std::string& name,
                       const net::LiveConfig& config) {
  LiveCell cell;
  core::PerfScenario& s = cell.scenario;
  s.name = name;
  s.mode = "optimized";
  s.shards = config.shards;
  std::fprintf(stderr, "[bench_perf] %s...\n", name.c_str());

  const std::uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  s.t_start_ms = core::unix_now_ms();
  cell.result = scale::run_live_sharded(config);
  s.t_end_ms = core::unix_now_ms();
  s.allocations = g_heap_allocs.load(std::memory_order_relaxed) - allocs0;

  const net::LiveRunResult& result = cell.result;
  if (!result.started) {
    std::fprintf(stderr, "[bench_perf] FAIL: %s did not start\n",
                 name.c_str());
    std::exit(1);
  }
  // Conservation is the correctness contract at every shard count:
  // issued == parsed and parsed == answered, summed across shards.
  if (!result.conserved() || !result.shard_conserved()) {
    std::fprintf(stderr,
                 "[bench_perf] FAIL: %s lost requests (issued=%llu "
                 "completed=%llu failed=%llu parsed=%llu)\n",
                 name.c_str(),
                 static_cast<unsigned long long>(result.load.issued),
                 static_cast<unsigned long long>(result.load.completed),
                 static_cast<unsigned long long>(result.load.failed),
                 static_cast<unsigned long long>(result.dist_requests));
    std::exit(1);
  }
  s.wall_seconds = result.load.duration_s;
  s.requests = result.load.completed;
  s.requests_per_sec = result.load.throughput_rps();  // wall-clock rate
  s.p50_response_ms =
      static_cast<double>(result.load.latency_hist.p50()) / 1000.0;
  s.p99_response_ms =
      static_cast<double>(result.load.latency_hist.p99()) / 1000.0;
  // No simulator here: normalize allocations per completed request.
  s.allocations_per_event =
      s.requests ? static_cast<double>(s.allocations) /
                       static_cast<double>(s.requests)
                 : 0.0;
  return cell;
}

// Live prefetch A/B (docs/PREDICTOR.md): the same paced run with the
// prediction service off vs. on. LARD-bundle is the substrate — bundle
// forwarding keeps each connection pinned to the back-end the prefetches
// warmed, but unlike full PRORD the policy itself never preloads, so any
// cache-hit gain is attributable to the X-Prord-Prefetch path. The open
// loop gives issued prefetches wall-clock lead over the client's next
// request (a saturated closed loop races them and loses), and the small
// cache keeps the LRU churning so converted misses are visible.
net::LiveConfig live_prefetch_config() {
  net::LiveConfig config;
  config.policy = core::PolicyKind::kLardBundle;
  config.backends = 4;
  config.requests = 12'000;
  config.concurrency = 16;
  config.open_loop = true;
  config.time_scale = 400.0;
  config.memory_fraction = 0.02;
  config.workload = trace::synthetic_spec();
  return config;
}

net::LiveConfig live_prefetch_on_config() {
  net::LiveConfig config = live_prefetch_config();
  config.prefetch = true;
  config.predictor.algo = predict::Algo::kMithril;
  config.predictor.confidence = 0.1;
  config.predictor.max_associations = 8;
  return config;
}

// Shard-scaling sweep (docs/SCALING.md): the full loopback cluster at
// each shard count on one port. The 1-shard cell is the baseline every
// live_scale_rps_{n}x_vs_1 ratio divides by; it is the single-distributor
// number, since one live assembly serves every shard count.
constexpr std::uint32_t kScaleShards[] = {1, 2, 4};

// Gate: whole-process heap allocations per completed request in the
// untraced loopback burst (client, front end and workers together). The
// live path allocates nothing per request in steady state beyond worker
// misses, out-of-order reorder entries and deque blocks; these vary a
// little with timing. Four runs on gcc 12 read 3.76-3.80, and the
// ceiling adds 25% to absorb timing and toolchain drift (docs/PERF.md).
// Re-formatting relayed responses, or owning parsed header strings
// again, adds two or more per request and trips it.
constexpr double kLiveBurstMaxAllocsPerRequest = 4.75;
// Gate: the same whole-process count in the prefetch-off cell, where 2% of
// the site fits in the worker caches and about 0.6 of the requests miss or
// are preloaded. Thirteen runs on gcc 12 read 10.19-10.41, of which about
// 5.6 are the cell's set-up; a list + map worker LRU (a node allocation
// for each of list and map per insert) reads 11.37-11.46. The ceiling is
// about 5% above the highest reading: the 25% the burst gate allows would
// let that LRU through (docs/PERF.md).
constexpr double kPrefetchOffMaxAllocsPerRequest = 10.9;
// Gate, on per-core work: each of kScaleGateShards shards (one per core)
// must serve at least kScaleGateShareOfOne of the lone shard's req/s.
// Shards serialized on anything shared can together do no more than one
// shard's work, a share of at most 1 / kScaleGateShards = 0.25, so the
// gate sits above that. It asks for no fixed speedup: on a 4-core host
// the 1-shard cell already keeps up to two cores busy (distributor,
// workers, client), so what 4 shards can add depends on how loaded the
// host is (1.4x-2.8x over runs on a 4-vCPU VM, where a 1.8x gate failed
// working code). The 4-vs-1 ratio is still reported. The gate skips itself
// on hosts with fewer cores than kScaleGateShards, where a red run would
// only measure the machine (docs/PERF.md).
constexpr std::uint32_t kScaleGateShards = 4;
constexpr double kScaleGateShareOfOne = 0.3;

net::LiveConfig scale_config(std::uint32_t shards) {
  net::LiveConfig config;
  config.policy = core::PolicyKind::kPrord;
  config.backends = 4;
  config.requests = 40'000;
  config.concurrency = 32;
  config.workload = trace::synthetic_spec();
  config.shards = shards;
  config.load_threads = 0;  // one generator thread per shard
  return config;
}

struct Options {
  std::string out_dir = ".";
  /// Max allowed live req/s loss at 1% trace sampling (0 = report only).
  double max_trace_overhead = 0.0;
  bool skip_live = false;
};

bool parse_flags(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--out-dir=", 0) == 0) {
      opts.out_dir = std::string(arg.substr(10));
    } else if (arg == "--skip-live") {
      opts.skip_live = true;
    } else if (arg.rfind("--max-trace-overhead=", 0) == 0) {
      opts.max_trace_overhead = std::atof(arg.substr(21).data());
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: bench_perf [--out-dir=DIR] "
                   "[--max-trace-overhead=F] [--skip-live]\n");
      return false;
    } else {
      std::fprintf(stderr, "bench_perf: unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_flags(argc, argv, opts)) return 2;

  const std::string sha = core::detect_git_sha();

  // Ceilings are this tree's allocs/event + 0.5%, rounded up to four
  // decimals (gcc 12 / libstdc++; Release and RelWithDebInfo count the
  // same). A count covers the whole run_experiment, trace generation and
  // workload construction included. The counts are exact per build, so
  // the margin only has to absorb toolchain drift; it stays below the
  // 1.2-1.4% a full-sort rank selection adds to fig8, fault_recovery and
  // zoo_ecommerce_diurnal, the smallest regression the gate must catch.
  // Lower a ceiling when an optimization lands; raise one only with the
  // reason in CHANGES.md.
  struct SimCase {
    const char* name;
    core::ExperimentConfig (*config)();
    double max_allocs_per_event;
  };
  const SimCase kSimCases[] = {
      {"fig8_memory_sweep", fig8_config, 0.7641},
      {"drift_adaptive", drift_config, 1.0476},
      {"fault_recovery", fault_config, 0.7692},
      {"zoo_cdn_flash", zoo_cdn_flash_config, 0.7386},
      {"zoo_api_gateway", zoo_api_gateway_config, 0.5512},
      {"zoo_ecommerce_diurnal", zoo_ecommerce_config, 0.6707},
  };

  core::PerfReport sim_report;
  sim_report.suite = "sim";
  sim_report.git_sha = sha;
  bool over_ceiling = false;
  for (const SimCase& c : kSimCases) {
    core::PerfScenario s = run_sim_scenario(c.name, c.config());
    const bool over = s.allocations_per_event > c.max_allocs_per_event;
    over_ceiling |= over;
    std::fprintf(stderr,
                 "[bench_perf] %s: %.0f events/s, %.4f allocs/event "
                 "(ceiling %.4f)%s\n",
                 c.name, s.events_per_sec, s.allocations_per_event,
                 c.max_allocs_per_event, over ? " OVER" : "");
    sim_report.scenarios.push_back(std::move(s));
  }
  sim_report.generated_unix_ms = core::unix_now_ms();
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);  // best effort
  const std::string sim_path = opts.out_dir + "/BENCH_sim.json";
  if (!core::write_perf_report(sim_report, sim_path)) return 1;
  std::fprintf(stderr, "[bench_perf] wrote %s\n", sim_path.c_str());

  bool live_failed = false;
  if (!opts.skip_live) {
    core::PerfReport live_report;
    live_report.suite = "live";
    live_report.git_sha = sha;
    // Tracing off, then on at the CI sampling rate: the ratio is the
    // observability tax on live throughput (1.0 = free).
    net::LiveConfig traced_config = live_config();
    traced_config.trace_sample_rate = 0.01;
    core::PerfScenario untraced =
        run_live_cell("live_loopback_burst", live_config()).scenario;
    core::PerfScenario traced =
        run_live_cell("live_loopback_traced_1pct", traced_config).scenario;
    const double trace_ratio =
        untraced.requests_per_sec > 0
            ? traced.requests_per_sec / untraced.requests_per_sec
            : 0.0;
    std::fprintf(stderr,
                 "[bench_perf] live tracing @1%%: %.0f vs %.0f req/s "
                 "(%.3fx)\n",
                 traced.requests_per_sec, untraced.requests_per_sec,
                 trace_ratio);
    const bool burst_over =
        untraced.allocations_per_event > kLiveBurstMaxAllocsPerRequest;
    std::fprintf(stderr,
                 "[bench_perf] live_loopback_burst: %.2f allocs/request "
                 "(ceiling %.2f)%s\n",
                 untraced.allocations_per_event,
                 kLiveBurstMaxAllocsPerRequest, burst_over ? " OVER" : "");
    live_report.scenarios.push_back(std::move(untraced));
    live_report.scenarios.push_back(std::move(traced));
    live_report.speedups.push_back(
        {"live_tracing_1pct_rps_ratio", trace_ratio});

    // Prefetch off, then on: the hit-rate ratio is the acceptance number
    // (>1.0 = the prediction service converts real misses), the rps ratio
    // is its throughput tax, and the waste ratio is the on-cell's share
    // of issued prefetches no client ever consumed.
    LiveCell pf_off = run_live_cell("live_prefetch_off",
                                    live_prefetch_config());
    LiveCell pf_on = run_live_cell("live_prefetch_on",
                                   live_prefetch_on_config());
    const bool pf_off_over = pf_off.scenario.allocations_per_event >
                             kPrefetchOffMaxAllocsPerRequest;
    std::fprintf(stderr,
                 "[bench_perf] live_prefetch_off: %.2f allocs/request "
                 "(ceiling %.2f)%s\n",
                 pf_off.scenario.allocations_per_event,
                 kPrefetchOffMaxAllocsPerRequest, pf_off_over ? " OVER" : "");
    const double hit_off = pf_off.result.worker_hit_rate();
    const double hit_on = pf_on.result.worker_hit_rate();
    const double hit_gain = hit_off > 0 ? hit_on / hit_off : 0.0;
    const double pf_rps_ratio =
        pf_off.scenario.requests_per_sec > 0
            ? pf_on.scenario.requests_per_sec /
                  pf_off.scenario.requests_per_sec
            : 0.0;
    const double waste = pf_on.result.prefetch_waste_ratio();
    std::fprintf(stderr,
                 "[bench_perf] live prefetch on vs off: cache-hit %.3f vs "
                 "%.3f (%.3fx), %.0f vs %.0f req/s (%.3fx), issued=%llu "
                 "waste=%.3f\n",
                 hit_on, hit_off, hit_gain, pf_on.scenario.requests_per_sec,
                 pf_off.scenario.requests_per_sec, pf_rps_ratio,
                 static_cast<unsigned long long>(pf_on.result.prefetch_issued),
                 waste);
    live_report.scenarios.push_back(std::move(pf_off.scenario));
    live_report.scenarios.push_back(std::move(pf_on.scenario));
    live_report.speedups.push_back(
        {"live_prefetch_cache_hit_ratio", hit_gain});
    live_report.speedups.push_back({"live_prefetch_rps_ratio", pf_rps_ratio});
    live_report.speedups.push_back({"live_prefetch_waste_ratio", waste});

    // Shard sweep: req/s per shard count, as a ratio over 1 shard.
    double baseline_rps = 0.0;
    double gate_ratio = 0.0;
    for (const std::uint32_t shards : kScaleShards) {
      LiveCell cell = run_live_cell(
          "live_scale_" + std::to_string(shards) + "shard",
          scale_config(shards));
      core::PerfScenario& s = cell.scenario;
      std::fprintf(stderr,
                   "[bench_perf] %s: %.0f req/s, p99 %.2f ms, "
                   "reuseport=%d\n",
                   s.name.c_str(), s.requests_per_sec, s.p99_response_ms,
                   cell.result.reuseport_used ? 1 : 0);
      if (shards == 1) {
        s.mode = "baseline";
        baseline_rps = s.requests_per_sec;
      } else {
        const double ratio =
            baseline_rps > 0 ? s.requests_per_sec / baseline_rps : 0.0;
        live_report.speedups.push_back(
            {"live_scale_rps_" + std::to_string(shards) + "x_vs_1", ratio});
        if (shards == kScaleGateShards) gate_ratio = ratio;
      }
      live_report.scenarios.push_back(std::move(s));
    }

    live_report.generated_unix_ms = core::unix_now_ms();
    const std::string live_path = opts.out_dir + "/BENCH_live.json";
    if (!core::write_perf_report(live_report, live_path)) return 1;
    std::fprintf(stderr, "[bench_perf] wrote %s\n", live_path.c_str());
    if (opts.max_trace_overhead > 0 &&
        trace_ratio < 1.0 - opts.max_trace_overhead) {
      std::fprintf(stderr,
                   "[bench_perf] FAIL: tracing costs %.1f%% live req/s "
                   "(gate %.1f%%)\n",
                   100.0 * (1.0 - trace_ratio),
                   100.0 * opts.max_trace_overhead);
      live_failed = true;
    }
    if (pf_off_over) {
      std::fprintf(stderr,
                   "[bench_perf] FAIL: live_prefetch_off allocates above its "
                   "ceiling; the worker miss path has regressed\n");
      live_failed = true;
    }
    if (burst_over) {
      std::fprintf(stderr,
                   "[bench_perf] FAIL: the live burst allocates above its "
                   "ceiling; the relay path has regressed\n");
      live_failed = true;
    }
    const double share_of_one = gate_ratio / kScaleGateShards;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    std::fprintf(stderr,
                 "[bench_perf] %u shards give %.2fx the 1-shard req/s: "
                 "%.2f of the lone shard's work per shard (gate %.2f)\n",
                 kScaleGateShards, gate_ratio, share_of_one,
                 kScaleGateShareOfOne);
    if (cores < kScaleGateShards) {
      std::fprintf(stderr,
                   "[bench_perf] shard gate skipped: %u cores < %u shards "
                   "(informational only)\n",
                   cores, kScaleGateShards);
    } else if (share_of_one < kScaleGateShareOfOne) {
      std::fprintf(stderr,
                   "[bench_perf] FAIL: per-shard work below the gate; the "
                   "shards no longer scale\n");
      live_failed = true;
    } else {
      std::fprintf(stderr, "[bench_perf] shard gate passed\n");
    }
  }

  if (over_ceiling) {
    std::fprintf(stderr,
                 "[bench_perf] FAIL: allocs/event above its ceiling (OVER "
                 "above); a hot-path optimization has regressed\n");
    return 1;
  }
  return live_failed ? 1 : 0;
}
