// Live prefetch over real sockets (docs/PREDICTOR.md "Live path").
//
// The accounting regression the satellite demands: a prefetch-heavy run
// must keep client request conservation *exact* — warming traffic is
// distributor-generated, excluded from client counters, SLO samples, and
// the load generator's completed/failed totals.
#include <gtest/gtest.h>

#include <cstdint>

#include "net/live_cluster.h"
#include "scale/sharded_live.h"
#include "trace/models.h"

namespace prord::net {
namespace {

LiveConfig prefetch_config(predict::Algo algo) {
  LiveConfig cfg;
  cfg.policy = core::PolicyKind::kPrord;
  cfg.backends = 2;
  cfg.requests = 3000;
  cfg.concurrency = 8;
  trace::WorkloadSpec spec = trace::synthetic_spec(/*seed=*/7);
  spec.gen.target_requests = 3000;
  cfg.workload = spec;
  cfg.replication_interval = sim::msec(200);
  // Prefetch-heavy: low confidence bar, wide fanout, fast mining.
  cfg.prefetch = true;
  cfg.predictor.algo = algo;
  cfg.predictor.confidence = 0.05;
  cfg.predictor.max_associations = 6;
  cfg.predictor.min_support = 2;
  cfg.predictor.mine_interval_us = 2'000;
  return cfg;
}

class LivePrefetchTest : public ::testing::TestWithParam<predict::Algo> {};

TEST_P(LivePrefetchTest, PrefetchHeavyRunKeepsConservationExact) {
  const LiveRunResult r = scale::run_live_sharded(prefetch_config(GetParam()));
  ASSERT_TRUE(r.started);
  EXPECT_TRUE(r.prefetch_enabled);
  EXPECT_EQ(r.prefetch_algo, predict::algo_name(GetParam()));

  // The warming traffic actually flowed...
  EXPECT_GT(r.prefetch_issued, 0u);
  EXPECT_GT(r.predictor.feeds, 0u);
  EXPECT_GT(r.predictor.mine_passes, 0u);
  std::uint64_t prefetch_served = 0;
  for (const auto& w : r.workers) prefetch_served += w.prefetch_requests;
  EXPECT_GT(prefetch_served, 0u);
  // A response the distributor tore down before reading still served.
  EXPECT_GE(prefetch_served, r.prefetch_responses);
  EXPECT_LE(r.prefetch_responses, r.prefetch_issued);

  // ...and never leaked into client accounting: conservation is exact,
  // and every request a worker counted as *client* traffic is one the
  // distributor parsed off a client socket (a leak of warming requests
  // into the client counters would break this equality).
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.load.issued, 3000u);
  EXPECT_EQ(r.load.completed + r.load.failed, r.load.issued);
  EXPECT_LE(r.dist_requests, r.load.issued);
  std::uint64_t client_served = 0;
  for (const auto& w : r.workers) client_served += w.requests;
  EXPECT_EQ(client_served, r.dist_requests);

  // Waste bookkeeping closes: issued = hits + wasted (computed at stop).
  EXPECT_EQ(r.prefetch_hits + r.prefetch_wasted, r.prefetch_issued);

  // The metrics catalogue carries the predict series.
  EXPECT_NE(r.metrics_scrape.find("prord_predict_feeds_total"),
            std::string::npos);
  EXPECT_NE(r.metrics_scrape.find("prord_predict_prefetch_issued_total"),
            std::string::npos);
  EXPECT_NE(r.metrics_scrape.find("prord_predict_algo"), std::string::npos);
}

TEST(LivePrefetch, OffByDefaultLeavesNoTrace) {
  LiveConfig cfg = prefetch_config(predict::Algo::kMithril);
  cfg.prefetch = false;
  const LiveRunResult r = scale::run_live_sharded(cfg);
  ASSERT_TRUE(r.started);
  EXPECT_FALSE(r.prefetch_enabled);
  EXPECT_EQ(r.prefetch_issued, 0u);
  EXPECT_TRUE(r.conserved());
  std::uint64_t prefetch_served = 0;
  for (const auto& w : r.workers) prefetch_served += w.prefetch_requests;
  EXPECT_EQ(prefetch_served, 0u);
  // No predict series in the scrape when the service never ran.
  EXPECT_EQ(r.metrics_scrape.find("prord_predict_feeds_total"),
            std::string::npos);
}

// Two shards, one shared service. Shard 0's router trains the offline
// model on every routed main page while both shards feed and query the
// service, so the service must learn on its own copy of that model, not
// read the router's (TSan in CI catches a shared read). No periodic pass
// runs within the run, so nothing but the warm start separates the two.
TEST(LivePrefetch, TwoShardsNeverReadTheRouterModel) {
  LiveConfig cfg = prefetch_config(predict::Algo::kPrordGraph);
  cfg.shards = 2;
  cfg.reuseport = false;  // shard 0 accepts and hands every other fd off
  cfg.load_threads = 0;   // one generator thread per shard
  cfg.predictor.mine_interval_us = 3'600'000'000;  // longer than the run
  const LiveRunResult r = scale::run_live_sharded(cfg);
  ASSERT_TRUE(r.started);
  EXPECT_TRUE(r.conserved());
  ASSERT_EQ(r.shards.size(), 2u);
  for (const auto& s : r.shards) EXPECT_GT(s.requests, 0u);
  EXPECT_GT(r.prefetch_issued, 0u);
  EXPECT_EQ(r.predictor.mine_passes, 0u);
  EXPECT_EQ(r.prefetch_hits + r.prefetch_wasted, r.prefetch_issued);
}

INSTANTIATE_TEST_SUITE_P(Backends, LivePrefetchTest,
                         ::testing::Values(predict::Algo::kPrordGraph,
                                           predict::Algo::kMithril),
                         [](const auto& info) {
                           return info.param == predict::Algo::kPrordGraph
                                      ? "PrordGraph"
                                      : "Mithril";
                         });

}  // namespace
}  // namespace prord::net
