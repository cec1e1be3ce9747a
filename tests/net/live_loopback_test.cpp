// End-to-end tests over real loopback sockets (scale::run_live_sharded at
// one shard): distributor + worker threads + load generator, small
// request budgets. These assert the
// operational contract — conservation, correct payloads, parseable
// /metrics — not performance.
#include <gtest/gtest.h>

#include <string>

#include "net/backend_worker.h"
#include "net/live_cluster.h"
#include "net/site_store.h"
#include "scale/sharded_live.h"
#include "trace/models.h"
#include "trace/workload.h"

namespace prord::net {
namespace {

trace::WorkloadSpec small_spec() {
  trace::WorkloadSpec spec = trace::synthetic_spec(/*seed=*/7);
  spec.gen.target_requests = 3000;
  return spec;
}

LiveConfig small_config(core::PolicyKind policy) {
  LiveConfig cfg;
  cfg.policy = policy;
  cfg.backends = 2;
  cfg.requests = 1500;
  cfg.concurrency = 8;
  cfg.workload = small_spec();
  cfg.replication_interval = sim::msec(200);
  return cfg;
}

TEST(LiveLoopback, WrrConservesAndServes) {
  const LiveRunResult r = scale::run_live_sharded(small_config(core::PolicyKind::kWrr));
  ASSERT_TRUE(r.started);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.load.issued, 1500u);
  EXPECT_EQ(r.load.completed, 1500u);
  EXPECT_EQ(r.load.failed, 0u);
  EXPECT_GT(r.load.status_ok, 0u);
  EXPECT_GT(r.load.throughput_rps(), 0.0);
  // Every routed request reached a worker and came back.
  EXPECT_EQ(r.routed, r.dist_requests);
  std::uint64_t worker_requests = 0;
  for (const auto& w : r.workers) worker_requests += w.requests;
  EXPECT_EQ(worker_requests, r.dist_requests);
}

TEST(LiveLoopback, PrordConservesAndMirrorsProactivePlacement) {
  const LiveRunResult r = scale::run_live_sharded(small_config(core::PolicyKind::kPrord));
  ASSERT_TRUE(r.started);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.load.failed, 0u);
  EXPECT_GT(r.load.status_ok, 0u);
  // The mining policy's prefetch/replication directives must have been
  // mirrored into the real worker caches.
  std::uint64_t preloads = 0;
  for (const auto& w : r.workers) preloads += w.preloads;
  EXPECT_GT(preloads, 0u);
  // PRORD's selling point: far fewer dispatcher contacts than requests.
  EXPECT_LT(r.dispatches, r.routed / 2);
}

TEST(LiveLoopback, MetricsScrapeIsParseable) {
  const LiveRunResult r = scale::run_live_sharded(small_config(core::PolicyKind::kLard));
  ASSERT_TRUE(r.started);
  ASSERT_FALSE(r.metrics_scrape.empty());
  // Prometheus text format: TYPE lines plus our counter families.
  EXPECT_NE(r.metrics_scrape.find("# TYPE"), std::string::npos);
  EXPECT_NE(r.metrics_scrape.find("prord_live_requests_total"),
            std::string::npos);
  EXPECT_NE(r.metrics_scrape.find("prord_live_backend_requests_total"),
            std::string::npos);
  // Every non-comment line is "name{labels} value" or "name value".
  std::size_t pos = 0;
  while (pos < r.metrics_scrape.size()) {
    std::size_t eol = r.metrics_scrape.find('\n', pos);
    if (eol == std::string::npos) eol = r.metrics_scrape.size();
    const std::string_view line(r.metrics_scrape.data() + pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      const auto space = line.rfind(' ');
      ASSERT_NE(space, std::string_view::npos) << line;
      EXPECT_GT(space, 0u) << line;
    }
    pos = eol + 1;
  }
  // The final registry mirrors the scrape and adds client-side series.
  EXPECT_FALSE(r.registry.empty());
}

TEST(LiveLoopback, WorkerServesPayloadsDirectly) {
  // One worker, no distributor: check payload framing + cache behavior.
  const trace::BuiltWorkload built = trace::build(small_spec());
  const trace::Workload wl = trace::build_workload(built.trace.records);
  SiteStore store(wl.files);
  BackendWorker worker(0, store, /*cache_capacity=*/1 << 20);
  ASSERT_TRUE(worker.start());

  const trace::FileId file = wl.requests.front().file;
  const std::string url = store.url(file);
  const std::string body = http_get(worker.port(), url);
  EXPECT_EQ(body.size(), store.size_bytes(file));
  EXPECT_EQ(body, store.make_payload(file));
  // Second hit should be served from the worker cache.
  (void)http_get(worker.port(), url);
  EXPECT_GE(worker.stats().cache_hits.load(), 1u);
  // Unknown URLs 404; the worker keeps serving afterwards.
  (void)http_get(worker.port(), "/definitely/not/a/file");
  EXPECT_GE(worker.stats().not_found.load(), 1u);
  EXPECT_EQ(http_get(worker.port(), url), body);
  worker.stop();
}

}  // namespace
}  // namespace prord::net
