// prord_live — the live loopback cluster (docs/LIVE_CLUSTER.md).
//
// Runs the real-socket prototype through scale::run_live_sharded: an
// epoll distributor front end (one shard unless --shards says more), N
// back-end worker threads serving the synthetic site from in-memory
// caches, and a trace-replay load generator, all over 127.0.0.1. Routing
// goes through the same core::RoutingCore + DistributionPolicy objects
// the simulator uses.
//
//   prord_live [--policy wrr|lard|ext-lard|press|prord|lard-bundle|all]  (repeatable)
//              [--trace cs-dept|worldcup98|synthetic | --clf FILE |
//               --scenario NAME|profile.json]
//              [--backends N] [--requests N] [--concurrency N]
//              [--pipeline N] [--open-loop] [--time-scale X]
//              [--port P] [--seed S] [--memory FRACTION]
//              [--replication-ms MS] [--duration-s S]
//              [--trace-out FILE] [--trace-sample-rate R]
//              [--slo-latency-ms MS] [--slo-availability A]
//              [--slo-windows SHORT_S,LONG_S] [--flight-out FILE]
//              [--prefetch off|prord|mithril] [--prefetch-fanout N]
//              [--prefetch-confidence C]
//              [--shards N] [--gossip-ms MS] [--no-reuseport]
//              [--load-threads N]
//
// --requests N cycles the trace until N requests have been issued
// (0 = one pass). --duration-s caps a run by wall time via the idle
// timeout only; the primary budget is request-count. Exits non-zero if
// any run fails request conservation (completed + failed != issued, or
// issued != parsed != answered across the front end's shards) or serves
// zero throughput.
//
// Observability (docs/OBSERVABILITY.md): --trace-sample-rate R traces a
// deterministic R fraction of forwarded requests hop-by-hop; --trace-out
// writes them as JSONL for tools/trace_report (multi-policy runs append
// ".<policy>" to the path). --flight-out arms the flight recorder and
// installs a SIGUSR2 handler that dumps it to the given file; the
// distributor also dumps on SLO violations and upstream faults.
//
// Live proactive prefetch (docs/PREDICTOR.md): --prefetch runs a
// PredictionService next to the distributor and warms predicted files
// into the backend LRUs over the same sockets ("prord" = paper path
// graph, "mithril" = association miner). Prefetch traffic is excluded
// from client accounting; the summary reports issued/hit/wasted.
//
// Sharded front end (docs/SCALING.md): --shards N runs N distributor
// shards behind one port — SO_REUSEPORT when the kernel has it, accept
// handoff otherwise (--no-reuseport forces the handoff path). --gossip-ms
// sets the load-gossip cadence between shard beliefs; --load-threads
// sizes the client side (0 = one per shard). With more than one shard the
// summary prints a per-shard table.
//
// Examples:
//   prord_live --policy prord --backends 4 --requests 100000
//   prord_live --policy all --requests 20000 --concurrency 32
//   prord_live --prefetch mithril --requests 10000
//   prord_live --trace-sample-rate 0.01 --trace-out spans.jsonl
//              --flight-out flight.json
//   prord_live --shards 4 --requests 50000 --concurrency 64
#include <csignal>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "scale/sharded_live.h"
#include "util/table.h"
#include "zoo/scenario_registry.h"

namespace {

using namespace prord;

std::optional<core::PolicyKind> parse_policy(std::string_view s) {
  if (s == "wrr") return core::PolicyKind::kWrr;
  if (s == "lard") return core::PolicyKind::kLard;
  if (s == "ext-lard") return core::PolicyKind::kExtLardPhttp;
  if (s == "press") return core::PolicyKind::kPress;
  if (s == "prord") return core::PolicyKind::kPrord;
  // Fig. 9 ablation: bundle forwarding without PRORD's native prefetch or
  // replication — the clean substrate for measuring --prefetch, since the
  // policy itself never warms caches yet keeps connections pinned to the
  // back-end the prefetches went to.
  if (s == "lard-bundle") return core::PolicyKind::kLardBundle;
  return std::nullopt;
}

void usage() {
  std::cerr
      << "usage: prord_live [--policy wrr|lard|ext-lard|press|prord|lard-bundle|all]\n"
         "                  [--trace cs-dept|worldcup98|synthetic | --clf "
         "FILE\n"
         "                   | --scenario NAME|profile.json]\n"
         "                  [--backends N] [--requests N] [--concurrency N]\n"
         "                  [--pipeline N] [--open-loop] [--time-scale X]\n"
         "                  [--port P] [--seed S] [--memory FRACTION]\n"
         "                  [--replication-ms MS]\n"
         "                  [--trace-out FILE] [--trace-sample-rate R]\n"
         "                  [--slo-latency-ms MS] [--slo-availability A]\n"
         "                  [--slo-windows SHORT_S,LONG_S] [--flight-out "
         "FILE]\n"
         "                  [--prefetch off|prord|mithril] "
         "[--prefetch-fanout N]\n"
         "                  [--prefetch-confidence C]\n"
         "                  [--shards N] [--gossip-ms MS] [--no-reuseport]\n"
         "                  [--load-threads N]\n";
}

void on_sigusr2(int) {
  // Async-signal-safe: one atomic store; the distributor's event loop
  // polls the flag and performs the dump.
  prord::obs::FlightRecorder::instance().request_dump();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<core::PolicyKind> policies;
  net::LiveConfig base;
  base.requests = 20'000;
  std::string trace_name = "synthetic";
  std::string scenario;  // workload-zoo name or profile JSON (src/zoo/)
  std::uint64_t seed = 0;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--policy") {
      const std::string_view v = next();
      if (v == "all") {
        policies = {core::PolicyKind::kWrr, core::PolicyKind::kLard,
                    core::PolicyKind::kExtLardPhttp, core::PolicyKind::kPress,
                    core::PolicyKind::kPrord};
      } else if (auto p = parse_policy(v)) {
        policies.push_back(*p);
      } else {
        std::cerr << "unknown policy: " << v << "\n";
        return 2;
      }
    } else if (arg == "--trace") {
      trace_name = next();
    } else if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--clf") {
      base.clf_path = next();
    } else if (arg == "--backends") {
      base.backends = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--requests") {
      base.requests = std::stoull(next());
    } else if (arg == "--concurrency") {
      base.concurrency = std::stoull(next());
    } else if (arg == "--pipeline") {
      base.pipeline_depth = std::stoull(next());
    } else if (arg == "--open-loop") {
      base.open_loop = true;
    } else if (arg == "--time-scale") {
      base.time_scale = std::stod(next());
    } else if (arg == "--port") {
      base.port = static_cast<std::uint16_t>(std::stoul(next()));
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--memory") {
      base.memory_fraction = std::stod(next());
    } else if (arg == "--replication-ms") {
      base.replication_interval = sim::msec(std::stoll(next()));
    } else if (arg == "--duration-s") {
      base.idle_timeout_us =
          static_cast<std::int64_t>(std::stod(next()) * 1e6);
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--trace-sample-rate") {
      base.trace_sample_rate = std::stod(next());
    } else if (arg == "--slo-latency-ms") {
      base.slo.latency_objective_us =
          static_cast<std::int64_t>(std::stod(next()) * 1000.0);
    } else if (arg == "--slo-availability") {
      base.slo.availability_objective = std::stod(next());
    } else if (arg == "--slo-windows") {
      const std::string v = next();
      const std::size_t comma = v.find(',');
      if (comma == std::string::npos) {
        std::cerr << "--slo-windows wants SHORT_S,LONG_S\n";
        return 2;
      }
      base.slo.short_window_us =
          static_cast<std::int64_t>(std::stod(v.substr(0, comma)) * 1e6);
      base.slo.long_window_us =
          static_cast<std::int64_t>(std::stod(v.substr(comma + 1)) * 1e6);
    } else if (arg == "--flight-out") {
      base.flight_dump_path = next();
      base.flight_recorder = true;
    } else if (arg == "--prefetch") {
      const std::string_view v = next();
      if (v == "off") {
        base.prefetch = false;
      } else if (v == "prord") {
        base.prefetch = true;
        base.predictor.algo = predict::Algo::kPrordGraph;
      } else if (v == "mithril") {
        base.prefetch = true;
        base.predictor.algo = predict::Algo::kMithril;
      } else {
        std::cerr << "unknown prefetch backend: " << v << "\n";
        return 2;
      }
    } else if (arg == "--prefetch-fanout") {
      base.predictor.max_associations =
          static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--prefetch-confidence") {
      base.predictor.confidence = std::stod(next());
    } else if (arg == "--shards") {
      base.shards = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--gossip-ms") {
      base.gossip_interval_us =
          static_cast<std::int64_t>(std::stod(next()) * 1000.0);
    } else if (arg == "--no-reuseport") {
      base.reuseport = false;
    } else if (arg == "--load-threads") {
      base.load_threads = std::stoull(next());
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (policies.empty()) policies.push_back(core::PolicyKind::kPrord);
  // Tracing without an explicit rate still works (spans stay in memory);
  // a --trace-out without a rate implies full sampling so the file is
  // never silently empty.
  if (!trace_out.empty() && base.trace_sample_rate <= 0.0)
    base.trace_sample_rate = 1.0;
  if (base.flight_recorder) std::signal(SIGUSR2, on_sigusr2);

  if (base.clf_path.empty()) {
    if (!scenario.empty()) {
      // Workload-zoo scenario drives the LoadGenerator instead of one of
      // the paper traces.
      try {
        base.workload = zoo::scenario_spec(scenario);
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
      if (seed) {
        base.workload.site.seed = seed;
        base.workload.gen.seed = seed * 31 + 1;
      }
    } else if (trace_name == "synthetic") {
      base.workload = trace::synthetic_spec(seed ? seed : 8);
    } else if (trace_name == "cs-dept") {
      base.workload = trace::cs_dept_spec(seed ? seed : 2006);
    } else if (trace_name == "worldcup98") {
      base.workload = trace::world_cup_spec(0.25, seed ? seed : 1998);
    } else {
      std::cerr << "unknown trace: " << trace_name << "\n";
      return 2;
    }
  }

  util::Table table({"policy", "issued", "completed", "failed", "req/s",
                     "p50(us)", "p99(us)", "hit-rate", "dispatch/req"});
  bool ok = true;
  const bool multi = policies.size() > 1;
  for (const auto policy : policies) {
    net::LiveConfig cfg = base;
    cfg.policy = policy;
    if (!trace_out.empty())
      cfg.trace_out = multi ? trace_out + "." + core::policy_label(policy)
                            : trace_out;
    std::cerr << "running " << core::policy_label(policy) << " ("
              << cfg.requests << " requests, " << cfg.backends
              << " backends)...\n";
    const net::LiveRunResult r = scale::run_live_sharded(cfg);
    if (!r.started) {
      std::cerr << core::policy_label(policy) << ": setup failed\n";
      ok = false;
      continue;
    }
    const auto& l = r.load;
    const double dispatch_per_req =
        r.routed ? static_cast<double>(r.dispatches) /
                       static_cast<double>(r.routed)
                 : 0.0;
    table.add_row({r.policy, std::to_string(l.issued),
                   std::to_string(l.completed), std::to_string(l.failed),
                   util::Table::num(l.throughput_rps(), 0),
                   std::to_string(l.latency_hist.p50()),
                   std::to_string(l.latency_hist.p99()),
                   util::Table::num(r.worker_hit_rate(), 3),
                   util::Table::num(dispatch_per_req, 3)});
    if (!r.conserved()) {
      std::cerr << r.policy << ": conservation violated (issued=" << l.issued
                << " completed=" << l.completed << " failed=" << l.failed
                << ")\n";
      ok = false;
    }
    // Conservation across shards: every issued request was parsed by
    // exactly one shard and answered.
    if (!r.shard_conserved()) {
      std::cerr << r.policy
                << ": conservation across shards violated (issued="
                << l.issued << " parsed=" << r.dist_requests << ")\n";
      ok = false;
    }
    if (r.shard_count > 1) {
      util::Table st({"shard", "requests", "responses", "accepts", "adopted",
                      "routed", "gossip-pub", "gossip-merge"});
      for (const auto& s : r.shards)
        st.add_row({std::to_string(s.shard), std::to_string(s.requests),
                    std::to_string(s.responses), std::to_string(s.accepts),
                    std::to_string(s.adopted), std::to_string(s.routed),
                    std::to_string(s.gossip_publishes),
                    std::to_string(s.gossip_merges)});
      std::cerr << r.policy << ": " << r.shard_count << " shards ("
                << (r.reuseport_used ? "SO_REUSEPORT" : "accept handoff")
                << ")\n";
      st.print(std::cerr);
    }
    if (l.completed == 0 || l.throughput_rps() <= 0) {
      std::cerr << r.policy << ": no throughput\n";
      ok = false;
    }
    if (r.metrics_scrape.find("prord_live_requests_total") ==
        std::string::npos) {
      std::cerr << r.policy << ": /metrics scrape missing counters\n";
      ok = false;
    }
    if (cfg.trace_sample_rate > 0.0) {
      std::cerr << r.policy << ": " << r.trace_spans << " spans traced ("
                << r.trace_dropped << " dropped)";
      if (!cfg.trace_out.empty()) std::cerr << " -> " << cfg.trace_out;
      std::cerr << "\n";
      if (r.trace_spans == 0 && l.completed > 0) {
        std::cerr << r.policy << ": tracing enabled but no spans collected\n";
        ok = false;
      }
    }
    if (r.prefetch_enabled) {
      std::cerr << r.policy << ": prefetch[" << r.prefetch_algo
                << "] issued=" << r.prefetch_issued
                << " hits=" << r.prefetch_hits
                << " wasted=" << r.prefetch_wasted
                << " waste-ratio="
                << util::Table::num(r.prefetch_waste_ratio(), 3)
                << " drops=" << r.predict_drops
                << " (feeds=" << r.predictor.feeds
                << " mine-passes=" << r.predictor.mine_passes
                << " publishes=" << r.predictor.publishes << ")\n";
    }
    std::cerr << r.policy << ": slo short-burn="
              << util::Table::num(r.slo.short_window.burn_rate, 2)
              << " long-burn="
              << util::Table::num(r.slo.long_window.burn_rate, 2)
              << (r.slo.violating ? " VIOLATING" : " ok") << " (violations="
              << r.slo_violations << ", flight dumps=" << r.flight_dumps
              << ")\n";
  }
  table.print(std::cout);
  return ok ? 0 : 1;
}
