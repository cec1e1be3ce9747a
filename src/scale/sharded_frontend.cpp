#include "scale/sharded_frontend.h"

#include <cstdio>
#include <utility>

namespace prord::scale {

ShardedFrontend::ShardedFrontend(std::vector<net::LiveRouter*> routers,
                                 const net::SiteStore& site,
                                 std::vector<net::BackendWorker*> workers,
                                 ShardedFrontendOptions options)
    : routers_(std::move(routers)),
      site_(site),
      workers_(std::move(workers)),
      opts_(std::move(options)) {
  if (opts_.shards == 0) opts_.shards = 1;
  if (opts_.shards > routers_.size())
    opts_.shards = static_cast<std::uint32_t>(routers_.size());
}

ShardedFrontend::~ShardedFrontend() { stop(); }

bool ShardedFrontend::start() {
  if (started_) return true;
  const std::uint32_t n = opts_.shards;

  // --- Listener strategy. ---
  bool want_reuseport = opts_.allow_reuseport && n > 1;
  if (want_reuseport && !net::reuseport_supported()) {
    fallback_reason_ = "SO_REUSEPORT not supported by this kernel";
    std::fprintf(stderr,
                 "prord-scale: warning: %s; falling back to single-listener "
                 "accept handoff across %u shards\n",
                 fallback_reason_.c_str(), n);
    want_reuseport = false;
  }

  port_ = opts_.port;
  std::vector<net::Fd> listeners(n);
  net::ListenOptions lo;
  lo.backlog = opts_.listen_backlog;
  if (want_reuseport) {
    lo.reuseport = true;
    for (std::uint32_t s = 0; s < n; ++s) {
      // The first bind resolves an ephemeral port; the rest join it.
      listeners[s] = net::listen_loopback(port_, lo);
      if (!listeners[s]) return false;
    }
    reuseport_used_ = true;
  } else {
    // Single listener on shard 0; peers get their connections handed off.
    if (n > 1 && opts_.allow_reuseport == false)
      fallback_reason_ = "SO_REUSEPORT disabled by configuration";
    listeners[0] = net::listen_loopback(port_, lo);
    if (!listeners[0]) return false;
    reuseport_used_ = false;
  }

  // --- Gossip board + shards. ---
  board_ = std::make_unique<LoadGossipBoard>(n);
  t0_ = std::chrono::steady_clock::now();
  cores_.clear();
  dists_.clear();
  for (std::uint32_t s = 0; s < n; ++s) {
    dists_.push_back(
        std::make_unique<net::Distributor>(*routers_[s], site_, workers_));
  }
  std::vector<net::Distributor*> peers;
  if (!reuseport_used_ && n > 1) {
    peers.reserve(n);
    for (auto& d : dists_) peers.push_back(d.get());
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    cores_.push_back(std::make_unique<ShardRoutingCore>(
        s, *board_, *routers_[s], opts_.gossip));
    net::DistributorShardOptions shard;
    shard.shard_id = s;
    shard.num_shards = n;
    shard.listen = std::move(listeners[s]);
    if (s == 0) shard.handoff_peers = peers;
    if (n > 1) {
      // All shards tick on the frontend clock, so staleness decay
      // compares timestamps from one timeline.
      ShardRoutingCore* core = cores_.back().get();
      shard.tick = [this, core](std::int64_t) { core->tick(elapsed_us()); };
    }
    dists_[s]->configure_shard(std::move(shard));
    dists_[s]->configure_obs(opts_.obs);
    if (opts_.predictor != nullptr) {
      dists_[s]->set_predictor(opts_.predictor, opts_.prefetch_min_confidence,
                               opts_.prefetch_fanout);
    }
    if (metrics_factory_) dists_[s]->set_metrics_provider(metrics_factory_(s));
    if (slo_factory_) dists_[s]->set_slo_provider(slo_factory_(s));
  }

  for (std::uint32_t s = 0; s < n; ++s) {
    if (!dists_[s]->start()) {
      for (std::uint32_t k = 0; k < s; ++k) dists_[k]->stop();
      dists_.clear();
      cores_.clear();
      return false;
    }
  }
  started_ = true;
  return true;
}

void ShardedFrontend::stop() {
  if (!started_) return;
  for (auto& d : dists_) d->stop();
  started_ = false;
}

net::LiveShardSnapshot ShardedFrontend::snapshot(std::uint32_t i) const {
  net::LiveShardSnapshot snap;
  snap.shard = i;
  const auto& c = dists_[i]->counters();
  snap.requests = c.requests.load();
  snap.responses = c.responses.load();
  snap.failures = c.failures.load();
  snap.not_found = c.not_found.load();
  snap.accepts = c.accepts.load();
  snap.adopted = c.adopted.load();
  snap.trace_spans = c.trace_spans.load();
  snap.slo_violations = c.slo_violations.load();
  snap.routed = routers_[i]->core().routed();
  if (i < cores_.size() && cores_[i]) {
    const ShardGossipStats& g = cores_[i]->stats();
    snap.gossip_publishes = g.publishes;
    snap.gossip_merges = g.merges;
    snap.gossip_peers_skipped = g.peers_skipped;
  }
  return snap;
}

}  // namespace prord::scale
