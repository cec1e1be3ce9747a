#include "policies/prord.h"

#include <algorithm>
#include <stdexcept>

namespace prord::policies {

Prord::Prord(std::shared_ptr<logmining::MiningModel> model,
             const trace::FileTable& files, PrordOptions options)
    : model_(std::move(model)),
      predict_link_(model_),
      files_(files),
      options_([&options] {
        // Fig. 4 step 3: "selects a least loaded backend server which hosts
        // the file in the memory" — the base assignment is replica-aware.
        options.lard.replication = true;
        return std::move(options);
      }()),
      lard_(options_.lard) {
  if (!model_) throw std::invalid_argument("Prord: null mining model");
  if (options_.prefetch_threshold <= 0.0 || options_.prefetch_threshold > 1.0)
    throw std::invalid_argument("Prord: prefetch_threshold in (0,1]");
  threshold_ = options_.prefetch_threshold;
}

void Prord::set_model(std::shared_ptr<logmining::MiningModel> model) {
  if (!model) throw std::invalid_argument("Prord::set_model: null model");
  model_ = std::move(model);
  predict_link_.rebind(model_);
}

std::string_view Prord::name() const {
  if (!options_.display_name.empty()) return options_.display_name;
  return "PRORD";
}

void Prord::start(cluster::Cluster& cluster) {
  if (options_.replication || options_.adaptive_threshold) {
    replication_task_.emplace(cluster.sim(), options_.replication_interval,
                              [this, &cluster] { run_maintenance(cluster); });
  }
}

void Prord::run_maintenance(cluster::Cluster& cluster) {
  if (options_.replication) run_replication_round(cluster);
  if (options_.adaptive_threshold) adapt_threshold();
}

void Prord::adapt_threshold() {
  const std::uint64_t triggered =
      prefetches_triggered_ - last_prefetches_triggered_;
  const std::uint64_t used = prefetch_routes_ - last_prefetch_routes_;
  last_prefetches_triggered_ = prefetches_triggered_;
  last_prefetch_routes_ = prefetch_routes_;
  if (triggered < 4) return;  // not enough signal this period
  const double usefulness =
      static_cast<double>(used) / static_cast<double>(triggered);
  if (usefulness < 0.5)
    threshold_ = std::min(0.9, threshold_ + 0.05);  // prefetching wastefully
  else if (usefulness > 1.5)
    threshold_ = std::max(0.1, threshold_ - 0.05);  // leaving demand untapped
}

void Prord::finish(cluster::Cluster& /*cluster*/) {
  replication_task_.reset();
  // Connection ids restart in the next play (warm-up -> measurement).
  conn_history_.clear();
}

void Prord::register_holder(
    std::unordered_map<trace::FileId, std::vector<ServerId>>& registry,
    trace::FileId file, ServerId server) {
  auto& holders = registry[file];
  if (std::find(holders.begin(), holders.end(), server) == holders.end())
    holders.push_back(server);
}

ServerId Prord::proactive_holder(
    std::unordered_map<trace::FileId, std::vector<ServerId>>& registry,
    trace::FileId file, cluster::Cluster& cluster) {
  const auto it = registry.find(file);
  if (it == registry.end()) return cluster::kNoServer;
  std::erase_if(it->second, [&](ServerId s) {
    return !cluster.backend(s).caches(file);
  });
  if (it->second.empty()) {
    registry.erase(it);
    return cluster::kNoServer;
  }
  const ServerId s = cluster.least_loaded_of(it->second);
  if (s == cluster::kNoServer) return cluster::kNoServer;
  // A proactive holder only short-circuits the dispatcher while it is not
  // itself the load problem.
  const ServerId least = cluster.least_loaded();
  if (least != cluster::kNoServer &&
      should_rebalance(cluster.backend(s).load(),
                       cluster.backend(least).load(), cluster.average_load(),
                       options_.lard))
    return cluster::kNoServer;
  return s;
}

RouteDecision Prord::route(RouteContext& ctx, cluster::Cluster& cluster) {
  RouteDecision d;
  const trace::Request& req = ctx.request;

  // Step 1 (Fig. 4): embedded object of this connection's current page —
  // forward to the back-end that served the page; no dispatch, no handoff.
  // The forward only happens while that back-end actually has (or is
  // staging) the object; when memory is too tight to keep bundles resident
  // the front-end falls back to per-object locality below, which is what
  // keeps PRORD from thrashing tiny caches (Fig. 8's low-memory regime).
  if (options_.bundle_forwarding && req.is_embedded &&
      ctx.conn.server != cluster::kNoServer &&
      cluster.backend(ctx.conn.server).available() &&
      (cluster.backend(ctx.conn.server).caches_or_fetching(req.file) ||
       cluster.replica_pending(ctx.conn.server, req.file))) {
    ++bundle_forwards_;
    d.server = ctx.conn.server;
    d.via = obs::RouteVia::kBundle;
    return d;
  }

  // Step 1b (Fig. 4, "already distributed ... backend that already
  // processes it"): the connection's own back-end has the page in memory
  // and is not the load problem — stay put, no dispatch, no handoff.
  if (options_.bundle_forwarding && ctx.conn.server != cluster::kNoServer &&
      cluster.backend(ctx.conn.server).available() &&
      cluster.backend(ctx.conn.server).caches(req.file)) {
    const ServerId least = cluster.least_loaded();
    if (least == cluster::kNoServer ||
        !should_rebalance(cluster.backend(ctx.conn.server).load(),
                          cluster.backend(least).load(),
                          cluster.average_load(), options_.lard)) {
      ++bundle_forwards_;
      d.server = ctx.conn.server;
      d.via = obs::RouteVia::kBundle;
      return d;
    }
  }

  // Dynamic pages (extension): no locality to exploit — balance load.
  if (options_.dynamic_aware && req.is_dynamic) {
    const ServerId s = cluster.least_loaded();
    if (s != cluster::kNoServer) {
      d.server = s;
      d.handoff = (ctx.conn.server != s);
      d.via = obs::RouteVia::kBalance;
      return d;
    }
  }

  // Step 2: proactively placed content known at the front-end. Back-ends
  // notify the front-end of placements and evictions, so prune stale
  // holders before trusting a registry; fall back to the dispatcher when
  // every holder is busy (load balancing still wins).
  ServerId s = proactive_holder(prefetched_, req.file, cluster);
  obs::RouteVia via = obs::RouteVia::kPrefetch;
  if (s == cluster::kNoServer) {
    s = proactive_holder(replicated_, req.file, cluster);
    via = obs::RouteVia::kReplica;
  }
  if (s != cluster::kNoServer) {
    ++prefetch_routes_;
    if (adaptation_ && via == obs::RouteVia::kPrefetch)
      adaptation_->on_prefetch_used();
    d.server = s;
    d.handoff = (ctx.conn.server != s);
    d.via = via;
    return d;
  }

  // Step 3: locality-aware assignment via the dispatcher.
  d.server = lard_.assign_server(req.file, cluster);
  d.contacted_dispatcher = true;
  d.handoff = (ctx.conn.server != d.server);
  d.via = obs::RouteVia::kDispatcher;
  return d;
}

void Prord::stage_bundle(trace::FileId page, ServerId server,
                         cluster::Cluster& cluster) {
  // "When a request for a main page arrives at the backend, the embedded
  // objects associated with the main page are pre-fetched into the cache."
  // The objects will be bundle-forwarded to this connection's server, so
  // they must live *here*. If a sibling already caches an object, pull it
  // over the interconnect (~80 µs/KB) instead of re-reading a duplicate
  // from disk (~10 ms).
  auto& backend = cluster.backend(server);
  // The pinned budget is shared by speculative users: when the replication
  // planner is active it owns that region, and staged bundles — content
  // that is about to be demanded anyway — live in the demand region.
  const bool pin = !options_.replication;
  for (trace::FileId obj : model_->bundles().bundle_of(page)) {
    if (!backend.caches(obj)) {
      bool pulled = false;
      for (ServerId s = 0; s < cluster.size() && !pulled; ++s) {
        if (s == server || !cluster.backend(s).caches(obj)) continue;
        pulled =
            cluster.push_replica(server, obj, files_.size_bytes(obj), pin);
      }
      if (!pulled) backend.prefetch(obj, files_.size_bytes(obj), pin);
    }
    register_holder(prefetched_, obj, server);
  }
}

void Prord::trigger_prefetch(const trace::Request& /*req*/, ServerId server,
                             std::span<const trace::FileId> history,
                             cluster::Cluster& cluster) {
  auto& backend = cluster.backend(server);

  // Prefetch a file onto `server` only when no back-end holds it: if it is
  // warm anywhere, steps 2-3 of the front-end flow will route the future
  // request to that holder, so a disk read here would only duplicate
  // content and burn disk bandwidth the demand path needs.
  auto stage = [&](trace::FileId file) {
    if (backend.caches(file)) {
      backend.prefetch(file, files_.size_bytes(file));  // refresh pin
      register_holder(prefetched_, file, server);
      return;
    }
    for (ServerId s = 0; s < cluster.size(); ++s)
      if (cluster.backend(s).caches(file)) {
        register_holder(prefetched_, file, s);
        return;
      }
    backend.prefetch(file, files_.size_bytes(file));
    register_holder(prefetched_, file, server);
  };

  // Navigation prediction (Algorithm 2): prefetch the likely next page
  // (and its bundle) when confidence clears the threshold.
  const auto prediction = predict_link_.best(history, threshold_);
  if (!prediction) return;
  // Dynamic pages cannot be prefetched (generated per request), but their
  // static bundle can.
  const bool dynamic_page =
      options_.dynamic_aware && files_.is_dynamic(prediction->file);
  ++prefetches_triggered_;
  if (adaptation_) adaptation_->on_prefetch_issued();
  if (!dynamic_page) stage(prediction->file);
  for (trace::FileId obj : model_->bundles().bundle_of(prediction->file))
    stage(obj);
}

void Prord::on_routed(const trace::Request& req, ServerId server,
                      cluster::Cluster& cluster) {
  // Dynamic popularity tracking feeds Algorithm 3; the adaptation loop's
  // sessionizer sees the same stream.
  model_->popularity().record_hit(req.file, cluster.sim().now());
  cluster.dispatcher().assign(req.file, server);
  if (adaptation_) adaptation_->on_request(req);

  if (req.is_embedded) return;

  // Online model update: this page followed the connection's history.
  auto& history = conn_history_[req.conn];
  if (!history.empty()) {
    // Score the model before it learns from this arrival: would its
    // confident guess have anticipated the page? This is the live quality
    // signal the drift monitor watches.
    const auto guess = predict_link_.best(history, threshold_);
    const bool correct = guess && guess->file == req.file;
    ++(correct ? prediction_hits_ : prediction_misses_);
    if (adaptation_) adaptation_->on_prediction(correct);
    predict_link_.feed_transition(history, req.file);
  }
  history.push_back(req.file);
  if (history.size() > options_.max_history)
    history.erase(history.begin());

  // Bundle staging belongs to the bundle scheme (Fig. 9's "LARD-bundle");
  // navigation prefetching to the prefetch scheme ("LARD-prefetch-nav").
  if (options_.bundle_forwarding || options_.prefetch)
    stage_bundle(req.file, server, cluster);
  if (options_.prefetch) trigger_prefetch(req, server, history, cluster);
}

void Prord::on_server_down(ServerId server, cluster::Cluster& /*cluster*/) {
  const auto purge = [server](auto& registry) {
    for (auto it = registry.begin(); it != registry.end();) {
      std::erase(it->second, server);
      if (it->second.empty())
        it = registry.erase(it);
      else
        ++it;
    }
  };
  purge(prefetched_);
  purge(replicated_);
}

void Prord::on_server_up(ServerId server, cluster::Cluster& cluster) {
  // Without the replication scheme the node re-warms on demand misses
  // alone — the ablation the fault bench compares against.
  if (!options_.replication) return;
  const auto table = model_->popularity().rank_table(cluster.sim().now());
  std::size_t pushes = 0;
  for (const auto& entry : table) {
    if (pushes >= options_.max_replication_pushes) break;
    const std::uint32_t bytes = files_.size_bytes(entry.file);
    // push_replica declines dead/saturated targets and files already
    // resident, so this loop self-limits to useful transfers.
    if (!cluster.push_replica(server, entry.file, bytes)) continue;
    cluster.dispatcher().assign(entry.file, server);
    register_holder(replicated_, entry.file, server);
    ++rewarm_pushes_;
    ++pushes;
  }
}

void Prord::run_replication_round(cluster::Cluster& cluster) {
  ++replication_rounds_;
  const auto now = cluster.sim().now();
  auto plan_opts = options_.replication_plan;
  if (plan_opts.max_directives == 0)
    plan_opts.max_directives = options_.max_replication_pushes * 4;
  // The planner consumes at most max_directives rows (T1 comes from the
  // table's front, and the loop breaks at the directive cap or the
  // min_rank floor), so a top-k selection sees the exact rows the full
  // sort would hand it. The tracker re-selects only around what changed
  // since the last round; rank_scratch_ is reused across rounds.
  model_->popularity().top_rank_table(now, plan_opts.max_directives,
                                      rank_scratch_);
  const auto plan =
      logmining::plan_replication(rank_scratch_, cluster.size(), plan_opts);

  std::size_t pushes = 0;
  for (const auto& directive : plan) {
    if (pushes >= options_.max_replication_pushes) break;
    const trace::FileId file = directive.file;
    const std::uint32_t bytes = files_.size_bytes(file);

    if (directive.tier == logmining::ReplicaTier::kNone) {
      // No proactive replication for this file any more: stop steering
      // requests at its replica set and let the pinned LRU age the copies
      // out. Actively evicting them only forces demand re-reads later.
      replicated_.erase(file);
      continue;
    }
    if (directive.tier == logmining::ReplicaTier::kNoChange) continue;

    // Push replicas to the least-loaded back-ends that lack the file.
    auto& holders = replicated_[file];
    std::uint32_t have = 0;
    for (ServerId s = 0; s < cluster.size(); ++s)
      have += cluster.backend(s).caches(file);
    while (have < directive.target_replicas &&
           pushes < options_.max_replication_pushes) {
      ServerId best = cluster::kNoServer;
      for (ServerId s = 0; s < cluster.size(); ++s) {
        if (!cluster.backend(s).available()) continue;
        if (cluster.backend(s).caches(file)) continue;
        if (std::find(holders.begin(), holders.end(), s) != holders.end())
          continue;
        if (best == cluster::kNoServer ||
            cluster.backend(s).load() < cluster.backend(best).load())
          best = s;
      }
      if (best == cluster::kNoServer) break;
      if (!cluster.push_replica(best, file, bytes)) break;  // NIC saturated
      cluster.dispatcher().assign(file, best);
      register_holder(replicated_, file, best);
      ++replicas_pushed_;
      ++pushes;
      ++have;
    }
  }
}

PrordOptions prord_full_options() { return PrordOptions{}; }

PrordOptions lard_bundle_options() {
  PrordOptions o;
  o.replication = false;
  o.prefetch = false;
  o.display_name = "LARD-bundle";
  return o;
}

PrordOptions lard_distribution_options() {
  PrordOptions o;
  o.bundle_forwarding = false;
  o.prefetch = false;
  o.display_name = "LARD-distribution";
  return o;
}

PrordOptions lard_prefetch_nav_options() {
  PrordOptions o;
  o.bundle_forwarding = false;
  o.replication = false;
  o.display_name = "LARD-prefetch-nav";
  return o;
}

PrordOptions prord_no_replication_options() {
  PrordOptions o;
  o.replication = false;
  o.display_name = "PRORD-norepl";
  return o;
}

}  // namespace prord::policies
