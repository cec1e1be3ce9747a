// Live loopback throughput — the socket-path counterpart of Fig. 7.
//
// Drives the real epoll cluster (src/net/) instead of the simulator: N
// back-end worker threads + distributor + closed-loop load generator, all
// over 127.0.0.1, one run per policy. Reported req/s is wall-clock
// saturation throughput of the whole process pipeline, so absolute
// numbers depend on the host; the interesting output is the *relative*
// ordering and the dispatch/hit-rate columns, which mirror the sim
// tables.
//
// Flags: --requests N (default 50000), --backends N (default 4),
//        --concurrency N (default 32), --pipeline N (default 4),
//        --trace-sample-rate R (default 0), --trace-out FILE (per-policy
//        spans land at FILE.<policy>, ready for tools/trace_report).
#include <cstring>
#include <iostream>
#include <string>

#include "scale/sharded_live.h"
#include "util/table.h"

namespace {

using namespace prord;

constexpr core::PolicyKind kPolicies[] = {
    core::PolicyKind::kWrr, core::PolicyKind::kLard,
    core::PolicyKind::kExtLardPhttp, core::PolicyKind::kPress,
    core::PolicyKind::kPrord};

}  // namespace

int main(int argc, char** argv) {
  net::LiveConfig base;
  std::string trace_out;
  base.requests = 50'000;
  base.concurrency = 32;
  base.pipeline_depth = 4;
  base.backends = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--requests")
      base.requests = std::stoull(next());
    else if (arg == "--backends")
      base.backends = static_cast<std::uint32_t>(std::stoul(next()));
    else if (arg == "--concurrency")
      base.concurrency = std::stoull(next());
    else if (arg == "--pipeline")
      base.pipeline_depth = std::stoull(next());
    else if (arg == "--trace-sample-rate")
      base.trace_sample_rate = std::stod(next());
    else if (arg == "--trace-out")
      trace_out = next();
  }
  if (!trace_out.empty() && base.trace_sample_rate <= 0.0)
    base.trace_sample_rate = 1.0;

  std::cout << "\n=== Live loopback: throughput across policies ===\n\n";
  util::Table table({"policy", "req/s", "p50(us)", "p99(us)", "hit-rate",
                     "dispatch/req", "conserved"});
  bool ok = true;
  for (const auto policy : kPolicies) {
    net::LiveConfig cfg = base;
    cfg.policy = policy;
    if (!trace_out.empty())
      cfg.trace_out = trace_out + "." + core::policy_label(policy);
    std::cerr << "live run: " << core::policy_label(policy) << "...\n";
    const net::LiveRunResult r = scale::run_live_sharded(cfg);
    if (!r.started) {
      std::cerr << core::policy_label(policy) << ": setup failed\n";
      ok = false;
      continue;
    }
    const double dispatch_per_req =
        r.routed ? static_cast<double>(r.dispatches) /
                       static_cast<double>(r.routed)
                 : 0.0;
    table.add_row({r.policy, util::Table::num(r.load.throughput_rps(), 0),
                   std::to_string(r.load.latency_hist.p50()),
                   std::to_string(r.load.latency_hist.p99()),
                   util::Table::num(r.worker_hit_rate(), 3),
                   util::Table::num(dispatch_per_req, 3),
                   r.conserved() ? "yes" : "NO"});
    if (cfg.trace_sample_rate > 0.0)
      std::cerr << r.policy << ": " << r.trace_spans << " spans traced\n";
    ok = ok && r.conserved() && r.load.completed > 0;
  }
  table.print(std::cout);
  std::cout << "\nSame policy objects as the simulator (core::RoutingCore); "
               "absolute req/s is host-dependent.\n";
  return ok ? 0 : 1;
}
