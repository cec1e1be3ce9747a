#include "live.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc_hook.h"
#include "client.h"
#include "net/backend_worker.h"
#include "net/live_cluster.h"
#include "net/live_router.h"
#include "net/site_store.h"
#include "obs/trace_context.h"
#include "predict/predictor_iface.h"
#include "proc_threads.h"
#include "scale/sharded_frontend.h"
#include "schedule.h"
#include "sim.h"
#include "stats.h"
#include "trace/models.h"

namespace perfbench {

using namespace prord;

namespace {

constexpr std::uint32_t kBackends = 4;
/// Share of forwarded requests the traced run follows hop by hop.
constexpr double kTraceSampleRate = 0.05;
/// Set-ups per run; the median is reported.
constexpr int kSetups = 3;

std::string fmt(const char* f, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

/// Everything scale::run_live_sharded assembles, at one shard, built from
/// the same public constructors. Records which threads each start() made.
class LiveServer {
 public:
  LiveServer() = default;
  ~LiveServer() { stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  bool start(const net::LiveConfig& config, bool traced) {
    if (!net::prepare_live_setup(config, setup)) return false;
    store = std::make_unique<net::SiteStore>(setup.eval.files);
    std::vector<net::BackendWorker*> worker_ptrs;
    for (std::uint32_t i = 0; i < config.backends; ++i) {
      workers.push_back(
          std::make_unique<net::BackendWorker>(i, *store, setup.capacity));
      const std::vector<int> before = list_tasks();
      if (!workers.back()->start()) return false;
      for (const int tid : new_tasks(before, list_tasks()))
        worker_tids.push_back(tid);
      worker_ptrs.push_back(workers.back().get());
    }
    router = std::make_unique<net::LiveRouter>(
        setup.cfg, setup.model, setup.eval.files, setup.demand, setup.pinned);
    for (std::uint32_t b = 0; b < config.backends; ++b) {
      net::BackendWorker* w = worker_ptrs[b];
      router->cluster().backend(b).set_proactive_observer(
          [w](trace::FileId file, std::uint32_t bytes, bool pin) {
            w->preload(file, bytes, pin);
          });
    }
    if (config.prefetch) {
      predictor = predict::make_prediction_service(config.predictor,
                                                   setup.model);
      const std::vector<int> before = list_tasks();
      predictor->start();
      predictor_tids = new_tasks(before, list_tasks());
    }
    scale::ShardedFrontendOptions fo;
    fo.shards = 1;
    fo.obs.trace_sample_rate = traced ? kTraceSampleRate : 0.0;
    fo.predictor = predictor.get();
    fo.prefetch_min_confidence = config.predictor.confidence;
    fo.prefetch_fanout = config.predictor.max_associations;
    fe = std::make_unique<scale::ShardedFrontend>(
        std::vector<net::LiveRouter*>{router.get()}, *store, worker_ptrs, fo);
    const std::vector<int> before = list_tasks();
    if (!fe->start()) return false;
    frontend_tids = new_tasks(before, list_tasks());
    return true;
  }

  /// Joins every server thread (idempotent), front end first.
  void stop() {
    if (fe) fe->stop();
    for (auto& w : workers) w->stop();
    if (predictor) predictor->stop();
  }

  net::LiveSetup setup;
  std::unique_ptr<net::SiteStore> store;
  std::vector<std::unique_ptr<net::BackendWorker>> workers;
  std::unique_ptr<net::LiveRouter> router;
  std::unique_ptr<predict::IPredictor> predictor;
  std::unique_ptr<scale::ShardedFrontend> fe;
  std::vector<int> frontend_tids, worker_tids, predictor_tids;
};

/// Counters read at the edges of a step.
struct Probe {
  std::int64_t proc_cpu = 0;
  std::int64_t client_cpu = 0;
  SchedStat frontend, worker, predictor, client;
  std::vector<ThreadAllocs> allocs;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t pf_issued = 0, pf_hits = 0, pf_drops = 0, mine_passes = 0;
};

Probe take_probe(const LiveServer& s) {
  Probe p;
  p.proc_cpu = process_cpu_ns();
  p.client_cpu = thread_cpu_ns();
  p.frontend = sum_schedstat(s.frontend_tids);
  p.worker = sum_schedstat(s.worker_tids);
  p.predictor = sum_schedstat(s.predictor_tids);
  read_schedstat(current_tid(), p.client);
  p.allocs = alloc_snapshot();
  for (const auto& w : s.workers) {
    p.hits += w->stats().cache_hits.load();
    p.misses += w->stats().cache_misses.load();
  }
  const auto& c = s.fe->shard(0).counters();
  p.pf_issued = c.prefetch_issued.load();
  p.pf_hits = c.prefetch_hits.load();
  p.pf_drops = c.predict_drops.load();
  if (s.predictor) p.mine_passes = s.predictor->stats().mine_passes;
  return p;
}

struct Step {
  std::string name;
  StepResult r;
  Probe begin, end;
  double p50_ms = 0.0, p99_ms = 0.0, lag_p99_us = 0.0;
  bool valid = true;  ///< the client kept to its schedule
  bool pass = false;  ///< meets the ladder's limits
};

/// Server-side counters summed over a set of steps.
struct Totals {
  std::uint64_t ok = 0;
  std::int64_t server_cpu_ns = 0;  ///< process CPU minus the client thread
  SchedStat frontend, worker, predictor;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t pf_issued = 0, pf_hits = 0, pf_drops = 0, mine_passes = 0;
  std::uint64_t fe_allocs = 0, wk_allocs = 0, pr_allocs = 0;
  std::vector<double> lag_us;
  std::vector<TracedReply> traced;

  void add(const Step& s, const LiveServer& server) {
    const Probe& b = s.begin;
    const Probe& e = s.end;
    ok += s.r.ok;
    server_cpu_ns += (e.proc_cpu - b.proc_cpu) - (e.client_cpu - b.client_cpu);
    const auto add_stat = [](SchedStat& to, const SchedStat& from,
                             const SchedStat& upto) {
      to.run_ns += upto.run_ns - from.run_ns;
      to.wait_ns += upto.wait_ns - from.wait_ns;
    };
    add_stat(frontend, b.frontend, e.frontend);
    add_stat(worker, b.worker, e.worker);
    add_stat(predictor, b.predictor, e.predictor);
    hits += e.hits - b.hits;
    misses += e.misses - b.misses;
    pf_issued += e.pf_issued - b.pf_issued;
    pf_hits += e.pf_hits - b.pf_hits;
    pf_drops += e.pf_drops - b.pf_drops;
    mine_passes += e.mine_passes - b.mine_passes;
    fe_allocs += allocs_between(b.allocs, e.allocs, server.frontend_tids);
    wk_allocs += allocs_between(b.allocs, e.allocs, server.worker_tids);
    pr_allocs += allocs_between(b.allocs, e.allocs, server.predictor_tids);
    lag_us.insert(lag_us.end(), s.r.lag_us.begin(), s.r.lag_us.end());
    traced.insert(traced.end(), s.r.traced.begin(), s.r.traced.end());
  }
};

}  // namespace

PartResult run_live_part(const LiveSpec& spec, std::uint64_t seed,
                         double seconds, bool traced,
                         const std::function<void()>& between_rounds) {
  PartResult part;
  net::LiveConfig config;
  config.policy = core::PolicyKind::kPrord;
  config.backends = kBackends;
  // The seed draws the request stream; the site (files and sizes) stays
  // the paper's, so every seed loads the same server.
  config.workload = spec.cs_dept ? trace::cs_dept_spec() : trace::synthetic_spec();
  config.workload.gen.seed += seed;
  config.memory_fraction = spec.memory_fraction;
  config.prefetch = spec.prefetch;
  config.predictor.algo = predict::Algo::kPrordGraph;
  const std::size_t channels = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);

  // The client gets a CPU of its own and the server the others, so the
  // load generator never competes with the system it measures (with one
  // CPU they share it). Server threads inherit the affinity in force when
  // start() creates them.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> server_cpus = cpus, client_cpus = cpus;
  if (cpus.size() > 1) {
    server_cpus.pop_back();
    client_cpus = {cpus.back()};
  }

  // --- Set-up, repeated: build, start, connect; the last one serves. ---
  std::unique_ptr<LiveServer> server;
  std::unique_ptr<OpenLoopClient> client;
  SiteView site;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    server.reset();
    pin_to(server_cpus);
    const std::int64_t t0 = now_ns();
    server = std::make_unique<LiveServer>();
    if (!server->start(config, traced)) {
      part.valid = false;
      part.errors.push_back("live: server failed to start");
      return part;
    }
    client = std::make_unique<OpenLoopClient>(site, server->fe->port(),
                                              channels);
    if (!client->connect()) {
      part.valid = false;
      part.errors.push_back("live: client failed to connect");
      return part;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  pin_to(client_cpus);
  part.setup_s = median(setup_s);
  const trace::FileTable& files = server->setup.eval.files;
  for (std::size_t f = 0; f < files.count(); ++f) {
    site.urls.push_back(files.url(static_cast<trace::FileId>(f)));
    site.payloads.push_back(
        server->store->make_payload(static_cast<trace::FileId>(f)));
  }
  const std::vector<trace::Request>& requests = server->setup.eval.requests;

  // --- Steps. ---
  std::size_t cursor = 0;
  std::uint64_t stream = 0;
  const auto run_step = [&](const std::string& name, double rate, double len,
                            bool rung) {
    Step s;
    s.name = name;
    StepPlan plan;
    plan.due_ns = poisson_schedule(seed, stream++, rate, len);
    plan.sends.reserve(plan.due_ns.size());
    for (std::size_t i = 0; i < plan.due_ns.size(); ++i) {
      const trace::Request& q = requests[cursor++ % requests.size()];
      plan.sends.push_back({q.file, static_cast<std::uint32_t>(q.conn % channels)});
    }
    const double limit_s = spec.p99_limit_ms / 1e3;
    // A rung with half the limit's worth of requests outstanding has
    // already failed; stopping there keeps an overload short and small.
    if (rung)
      plan.abort_backlog = static_cast<std::uint64_t>(
          std::max(64.0, rate * limit_s / 2.0));
    plan.collect_trace_ids = traced;
    s.begin = take_probe(*server);
    s.r = client->run(plan);
    s.end = take_probe(*server);

    const std::uint64_t n = s.r.latency_us.size();
    s.p50_ms = percentile(s.r.latency_us, 0.5) / 1e3;
    s.p99_ms = percentile(s.r.latency_us, 0.99) / 1e3;
    s.lag_p99_us = percentile(s.r.lag_us, 0.99);
    s.valid = s.lag_p99_us <= spec.p99_limit_ms * 1e3;
    // A step that keeps up has well under a fifth of the limit's worth of
    // requests outstanding when its last one is sent.
    const double backlog_cap = std::max(16.0, rate * limit_s / 5.0);
    s.pass = s.valid && !s.r.aborted && s.r.failed == 0 && supports(n, 0.99) &&
             s.p99_ms <= spec.p99_limit_ms &&
             static_cast<double>(s.r.backlog_at_end) <= backlog_cap;
    const double tail_q = tail_percentile(n);
    part.notes.push_back(fmt(
        "live %-9s offered %7.0f/s (realized %7.0f/s over %.2f s): n=%llu "
        "p50 %.3f ms p99 %.3f ms; highest supported p%g = %.3f ms; lag p99 "
        "%.1f us (p50 %.1f); client cpu %.0f ms wait %.0f ms; failed %llu; "
        "backlog %llu%s -> %s",
        name.c_str(), rate,
        s.r.window_s > 0 ? static_cast<double>(s.r.issued) / s.r.window_s : 0.0,
        s.r.window_s, static_cast<unsigned long long>(n), s.p50_ms, s.p99_ms,
        tail_q * 100.0, percentile(s.r.latency_us, tail_q) / 1e3, s.lag_p99_us,
        percentile(s.r.lag_us, 0.5),
        static_cast<double>(s.end.client.run_ns - s.begin.client.run_ns) / 1e6,
        static_cast<double>(s.end.client.wait_ns - s.begin.client.wait_ns) / 1e6,
        static_cast<unsigned long long>(s.r.failed),
        static_cast<unsigned long long>(s.r.backlog_at_end),
        s.r.aborted ? " (aborted)" : "",
        !s.valid ? "client behind" : s.pass ? "pass" : "fail"));
    part.attempted += s.r.issued;
    part.failed += s.r.failed;
    if (!s.r.conserved())
      part.errors.push_back("live " + name + ": ok + failed != issued");
    if (s.r.wrong_body + s.r.misordered + s.r.bad_status > 0)
      part.errors.push_back(fmt(
          "live %s: %llu wrong bodies, %llu misordered, %llu non-200",
          name.c_str(), static_cast<unsigned long long>(s.r.wrong_body),
          static_cast<unsigned long long>(s.r.misordered),
          static_cast<unsigned long long>(s.r.bad_status)));
    return s;
  };

  // The run is kRounds rounds of (low, high, one climb of the ladder), so
  // each is sampled across the whole run, and each is reported as the
  // median over rounds: one stall of the machine moves one sample of
  // kRounds, not the result.
  //
  // The ladder's rungs are kLadderStep apart above the high rate. A climb
  // finds the highest rung that passes by bisection (about 6 rungs instead
  // of up to 35), assuming a rung that passes means every lower one does.
  // Rung rates are nominal, so a climb's result moves only when a rung
  // flips.
  constexpr int kRounds = 9;
  std::vector<double> ladder;
  for (double r = spec.high_rps * kLadderStep;
       r <= spec.high_rps * kLadderTop; r *= kLadderStep)
    ladder.push_back(std::round(r));
  // Low and high steps are long enough for a supported p99 (1000 replies,
  // with a margin for Poisson counts) whatever `seconds` is.
  const auto step_s = [&](double rate) {
    return std::max(seconds / 40.0, 1500.0 / rate);
  };
  std::vector<Step> steps;
  steps.push_back(run_step("warmup", spec.high_rps, 0.05 * seconds, false));
  std::vector<std::size_t> low_at, high_at;
  std::vector<double> climbs;
  for (int round = 1; round <= kRounds; ++round) {
    between_rounds();
    const std::string tag = std::to_string(round);
    low_at.push_back(steps.size());
    steps.push_back(run_step("low/" + tag, spec.low_rps, step_s(spec.low_rps),
                             false));
    high_at.push_back(steps.size());
    steps.push_back(run_step("high/" + tag, spec.high_rps,
                             step_s(spec.high_rps), false));
    if (!steps[high_at.back()].pass) {
      climbs.push_back(steps[low_at.back()].pass ? spec.low_rps : 0.0);
      continue;
    }
    // Invariant: rung lo passes (0 = the high step), rung hi fails (one
    // past the top counts as failing).
    std::size_t lo = 0, hi = ladder.size() + 1;
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      steps.push_back(run_step("climb" + tag + "@" + std::to_string(mid),
                               ladder[mid - 1], seconds / 70.0, true));
      (steps.back().pass ? lo : hi) = mid;
    }
    climbs.push_back(lo == 0 ? spec.high_rps : ladder[lo - 1]);
  }
  const auto median_of = [&](const std::vector<std::size_t>& at,
                             double Step::*field) {
    std::vector<double> v;
    for (const std::size_t i : at) v.push_back(steps[i].*field);
    return median(v);
  };

  const std::uint64_t parsed = server->fe->shard(0).counters().requests.load();
  server->stop();

  // --- Output checks across the run. ---
  std::uint64_t issued = 0, refused = 0, dropped = 0, ok = 0;
  for (const Step& s : steps) {
    issued += s.r.issued;
    refused += s.r.refused;
    dropped += s.r.dropped;
    ok += s.r.ok;
  }
  if (dropped == 0 ? parsed != issued - refused : parsed > issued - refused)
    part.errors.push_back(fmt("live: front end parsed %llu requests, client "
                              "issued %llu (%llu refused)",
                              static_cast<unsigned long long>(parsed),
                              static_cast<unsigned long long>(issued),
                              static_cast<unsigned long long>(refused)));
  for (const auto* at : {&low_at, &high_at}) {
    for (const std::size_t i : *at) {
      const Step& s = steps[i];
      if (!supports(s.r.latency_us.size(), 0.99))
        part.errors.push_back("live " + s.name + ": too few replies for a p99");
      if (!s.valid) {
        part.valid = false;
        part.notes.push_back("live " + s.name +
                             ": the client fell behind its schedule; run void");
      }
    }
  }

  // The high steps taken together: counters are summed step by step.
  Totals high;
  for (const std::size_t i : high_at) high.add(steps[i], *server);
  const double high_done =
      static_cast<double>(std::max<std::uint64_t>(1, high.ok));
  const double server_cpu_ns = static_cast<double>(high.server_cpu_ns);
  auto& e2e = part.end_to_end;
  e2e.push_back({"success_ratio",
                 issued ? static_cast<double>(ok) / static_cast<double>(issued)
                        : 0.0,
                 "ratio"});
  e2e.push_back({"p50_ms.low", median_of(low_at, &Step::p50_ms), "ms"});
  e2e.push_back({"server_cpu_us_per_req", server_cpu_ns / 1e3 / high_done, "us"});
  // Reported with the layers, not gated: on a shared virtual machine these
  // follow the host's load more than the program (README.md, "Bounds").
  auto& pl = part.per_layer;
  pl.push_back({"max_rate_rps", median(climbs), "1/s"});
  pl.push_back({"p99_ms.low", median_of(low_at, &Step::p99_ms), "ms"});
  pl.push_back({"p50_ms.high", median_of(high_at, &Step::p50_ms), "ms"});
  pl.push_back({"p99_ms.high", median_of(high_at, &Step::p99_ms), "ms"});
  if (!traced) return part;

  // --- Per-layer split at the high steps. ---
  const auto per_req = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3 / high_done;
  };
  pl.push_back({"frontend.cpu_us_per_req", per_req(high.frontend.run_ns), "us"});
  pl.push_back({"frontend.wait_us_per_req", per_req(high.frontend.wait_ns), "us"});
  pl.push_back({"worker.cpu_us_per_req", per_req(high.worker.run_ns), "us"});
  pl.push_back({"worker.wait_us_per_req", per_req(high.worker.wait_ns), "us"});
  const std::uint64_t lookups = high.hits + high.misses;
  pl.push_back({"worker.hit_ratio",
                lookups ? static_cast<double>(high.hits) /
                              static_cast<double>(lookups)
                        : 0.0,
                "ratio"});
  pl.push_back({"predict.cpu_us_per_req", per_req(high.predictor.run_ns), "us"});
  pl.push_back({"predict.useful_ratio",
                high.pf_issued ? static_cast<double>(high.pf_hits) /
                                     static_cast<double>(high.pf_issued)
                               : 0.0,
                "ratio"});
  pl.push_back({"predict.drops", static_cast<double>(high.pf_drops), "count"});
  pl.push_back({"predict.mine_passes", static_cast<double>(high.mine_passes),
                "count"});
  pl.push_back({"server.allocs_per_req",
                static_cast<double>(high.fe_allocs + high.wk_allocs +
                                    high.pr_allocs) /
                    high_done,
                "count"});
  pl.push_back({"allocs_per_req.frontend",
                static_cast<double>(high.fe_allocs) / high_done, "count"});
  pl.push_back({"allocs_per_req.worker",
                static_cast<double>(high.wk_allocs) / high_done, "count"});
  pl.push_back({"allocs_per_req.predictor",
                static_cast<double>(high.pr_allocs) / high_done, "count"});

  // Role CPU must add up to process CPU minus the client.
  const double roles_ns = static_cast<double>(
      high.frontend.run_ns + high.worker.run_ns + high.predictor.run_ns);
  const double cpu_gap = server_cpu_ns - roles_ns;
  part.notes.push_back(fmt(
      "live cpu at high steps: process-minus-client %.1f ms, roles %.1f ms "
      "(frontend %zu, worker %zu, predictor %zu threads), gap %.2f ms",
      server_cpu_ns / 1e6, roles_ns / 1e6, server->frontend_tids.size(),
      server->worker_tids.size(), server->predictor_tids.size(),
      cpu_gap / 1e6));
  if (std::fabs(cpu_gap) > 0.03 * server_cpu_ns + 20e6)
    part.errors.push_back("live trace: role CPU does not add up to process "
                          "CPU minus the client");

  // Hops: join the distributor's spans to the client's traced replies.
  std::unordered_map<std::uint64_t, const obs::LiveSpan*> by_id;
  for (const obs::LiveSpan& span : server->fe->shard(0).spans())
    by_id.emplace(span.id.hi ^ (span.id.lo * 0x9E3779B97F4A7C15ULL), &span);
  std::vector<std::vector<double>> hop(obs::kNumLiveHops);
  double hop_total[obs::kNumLiveHops] = {};
  double latency_total = 0.0, span_total = 0.0, service_total = 0.0;
  std::uint64_t matched = 0, broken = 0;
  for (const TracedReply& t : high.traced) {
    const auto it = by_id.find(t.hi ^ (t.lo * 0x9E3779B97F4A7C15ULL));
    if (it == by_id.end() || it->second->id.hi != t.hi ||
        it->second->id.lo != t.lo)
      continue;
    const obs::LiveSpan& span = *it->second;
    ++matched;
    if (span.hop_sum() != span.response_time()) ++broken;
    for (unsigned h = 0; h < obs::kNumLiveHops; ++h) {
      hop[h].push_back(static_cast<double>(span.hop_us[h]));
      hop_total[h] += static_cast<double>(span.hop_us[h]);
    }
    latency_total += t.latency_us;
    span_total += static_cast<double>(span.response_time());
    service_total += t.service_us;
  }
  part.notes.push_back(fmt(
      "live hops at high steps: %llu spans matched to replies; mean latency %.1f us "
      "= lag+outside %.1f us + spans %.1f us",
      static_cast<unsigned long long>(matched),
      matched ? latency_total / static_cast<double>(matched) : 0.0,
      matched ? (latency_total - span_total) / static_cast<double>(matched) : 0.0,
      matched ? span_total / static_cast<double>(matched) : 0.0));
  if (!supports(matched, 0.5))
    part.errors.push_back("live trace: too few traced replies at high");
  // Spans sit inside the client's send->receive window (1 us per request
  // covers the server clock's microsecond truncation).
  if (broken > 0 || span_total > service_total + static_cast<double>(matched))
    part.errors.push_back("live trace: hops do not telescope to client latency");
  double share_sum = 0.0;
  for (unsigned h = 0; h < obs::kNumLiveHops; ++h) {
    const std::string name =
        std::string("hop.") + obs::live_hop_name(static_cast<obs::LiveHop>(h));
    const double share = latency_total > 0 ? hop_total[h] / latency_total : 0.0;
    share_sum += share;
    pl.push_back({name + "_us.p50", median(hop[h]), "us"});
    pl.push_back({name + "_us.share", share, "ratio"});
  }
  pl.push_back({"hop.outside_us.share", matched ? 1.0 - share_sum : 0.0, "ratio"});

  const core::RoutingCore& core = server->router->core();
  const double routed = static_cast<double>(std::max<std::uint64_t>(1, core.routed()));
  pl.push_back({"routing.dispatch_per_req",
                static_cast<double>(core.dispatches()) / routed, "count"});
  pl.push_back({"routing.handoff_per_req",
                static_cast<double>(core.handoffs()) / routed, "count"});
  pl.push_back({"client.lag_us.p99", percentile(high.lag_us, 0.99), "us"});

  const GenMineTimes gm = time_gen_mine(
      config.workload, server->setup.cfg.train_seed_offset,
      server->setup.mining, server->setup.model != nullptr);
  pl.push_back({"live.trace.gen_s", gm.gen_s, "s"});
  pl.push_back({"live.logmining.mine_s", gm.mine_s, "s"});
  return part;
}

}  // namespace perfbench
