// End-to-end tests over real loopback sockets (scale::run_live_sharded at
// one shard): distributor + worker threads + load generator, small
// request budgets. These assert the
// operational contract — conservation, correct payloads, parseable
// /metrics — not performance.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "net/backend_worker.h"
#include "net/live_cluster.h"
#include "net/site_store.h"
#include "scale/sharded_live.h"
#include "trace/clf.h"
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

// An embedded object under /cgi-bin/ (a hit-counter image) is embedded,
// hence static and cacheable, in the sim; the live front end and worker
// must classify it the same way. The log also carries a real dynamic page
// so the dynamic counts are not trivially zero: under PRORD every request
// the sim marks dynamic is routed by the load-balancing branch and served
// uncached, and nothing else is.
TEST(LiveLoopback, EmbeddedCgiObjectIsStaticAsInTheSim) {
  std::vector<trace::LogRecord> records;
  // Every visit opens with the counter (a badge shown on another site),
  // so it is also the first request of the run.
  const char* kVisit[] = {"/cgi-bin/counter.gif", "/index.html", "/logo.gif",
                          "/cgi-bin/search.cgi?q=lens", "/news.html",
                          "/cgi-bin/counter.gif"};
  for (std::uint32_t client = 0; client < 40; ++client) {
    sim::SimTime t = sim::sec(client * 2.0);
    for (const char* url : kVisit) {
      trace::LogRecord r;
      r.time = t;
      r.client = client;
      r.url = url;
      r.bytes = 900 + 100 * static_cast<std::uint32_t>(r.url.size());
      records.push_back(r);
      t += sim::msec(20);
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const trace::LogRecord& a, const trace::LogRecord& b) {
                     return a.time < b.time;
                   });
  const std::string path =
      ::testing::TempDir() + "prord_embedded_cgi_access.log";
  {
    std::ofstream out(path);
    trace::write_clf(out, records);
  }

  // What the sim sees in the same log.
  std::ifstream in(path);
  trace::ClfParser parser;
  const trace::Workload wl = trace::build_workload(parser.parse_stream(in));
  const trace::FileId counter = wl.files.lookup("/cgi-bin/counter.gif");
  ASSERT_NE(counter, trace::kInvalidFile);
  std::uint64_t sim_dynamic = 0;
  for (const trace::Request& req : wl.requests) {
    sim_dynamic += req.is_dynamic;
    if (req.file == counter) {
      EXPECT_TRUE(req.is_embedded);
      EXPECT_FALSE(req.is_dynamic);
    }
  }
  ASSERT_EQ(sim_dynamic, 40u);

  LiveConfig cfg;
  cfg.policy = core::PolicyKind::kPrord;
  cfg.backends = 2;
  // One pass over the log on one connection: every record is sent
  // exactly once (with several connections, a faster one wraps around
  // its share while a slower one stops short).
  cfg.requests = 0;
  cfg.concurrency = 1;
  cfg.clf_path = path;
  const LiveRunResult r = scale::run_live_sharded(cfg);
  ASSERT_TRUE(r.started);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.load.issued, wl.requests.size());
  EXPECT_EQ(r.load.failed, 0u);

  std::uint64_t worker_dynamic = 0;
  for (const auto& w : r.workers) worker_dynamic += w.dynamic_served;
  EXPECT_EQ(worker_dynamic, sim_dynamic);
  const obs::Metric* balance = r.registry.find(
      "prord_live_routes_via_total", {{"via", "balance"}});
  ASSERT_NE(balance, nullptr);
  EXPECT_EQ(balance->value, static_cast<double>(sim_dynamic));
}

}  // namespace
}  // namespace prord::net
