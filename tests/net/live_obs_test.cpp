// Live-path observability tests: run-stable trace structure, /metrics
// framing under persistent connections, the /slo endpoint, JSONL span
// export, and SLO-triggered flight-recorder dumps (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cerrno>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "net/backend_worker.h"
#include "net/http.h"
#include "net/live_cluster.h"
#include "net/live_router.h"
#include "net/site_store.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "obs/trace_context.h"
#include "scale/sharded_frontend.h"
#include "scale/sharded_live.h"
#include "trace/models.h"
#include "trace/workload.h"
#include "util/json.h"

namespace prord::net {
namespace {

trace::WorkloadSpec obs_spec() {
  trace::WorkloadSpec spec = trace::synthetic_spec(/*seed=*/7);
  spec.gen.target_requests = 2000;
  return spec;
}

LiveConfig obs_config() {
  LiveConfig cfg;
  // WRR + a single in-order client: routing and cache state depend only
  // on the request sequence, so the trace *structure* must be identical
  // run to run even though wall-clock durations are not.
  cfg.policy = core::PolicyKind::kWrr;
  cfg.backends = 2;
  cfg.requests = 600;
  cfg.concurrency = 1;
  cfg.workload = obs_spec();
  cfg.trace_sample_rate = 1.0;
  cfg.trace_seed = 1234;
  return cfg;
}

TEST(LiveObs, TraceStructureIsRunStable) {
  const LiveRunResult a = scale::run_live_sharded(obs_config());
  const LiveRunResult b = scale::run_live_sharded(obs_config());
  ASSERT_TRUE(a.started);
  ASSERT_TRUE(b.started);
  ASSERT_EQ(a.load.failed, 0u);
  ASSERT_EQ(b.load.failed, 0u);

  // Full sampling: every forwarded request completes as one span.
  ASSERT_EQ(a.spans.size(), a.load.completed);
  ASSERT_EQ(a.trace_spans, a.spans.size());
  ASSERT_EQ(a.spans.size(), b.spans.size());

  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    const obs::LiveSpan& sa = a.spans[i];
    const obs::LiveSpan& sb = b.spans[i];
    // Identity and routing structure are deterministic...
    EXPECT_EQ(sa.request, sb.request) << i;
    EXPECT_EQ(sa.id, sb.id) << i;
    EXPECT_EQ(sa.id, obs::derive_trace_id(1234, sa.request)) << i;
    EXPECT_EQ(sa.file, sb.file) << i;
    EXPECT_EQ(sa.bytes, sb.bytes) << i;
    EXPECT_EQ(sa.server, sb.server) << i;
    EXPECT_EQ(sa.via, sb.via) << i;
    EXPECT_EQ(sa.status, sb.status) << i;
    EXPECT_EQ(sa.status, 200) << i;
    // ...while the wall-clock stamps only need to satisfy causality and
    // exact telescoping.
    for (const std::int64_t hop : sa.hop_us) EXPECT_GE(hop, 0) << i;
    EXPECT_GE(sa.completion, sa.arrival) << i;
    EXPECT_EQ(sa.hop_sum(), sa.response_time()) << i;
    if (i > 0) {
      EXPECT_GT(sa.request, a.spans[i - 1].request) << i;
    }
  }
}

/// A response copied out of the scanner's buffer.
struct OwnedResponse {
  int status = 0;
  bool keep_alive = true;
  std::string headers;
  std::string body;

  std::optional<std::string_view> header(std::string_view name) const {
    return find_header(headers, name);
  }
};

// Sends `wire` to 127.0.0.1:`port` on one connection and reads until
// `expected` responses have been parsed.
std::vector<OwnedResponse> pipelined_exchange(std::uint16_t port,
                                              const std::string& wire,
                                              std::size_t expected) {
  std::vector<OwnedResponse> responses;
  Fd fd = connect_loopback(port);
  if (!fd.valid()) return responses;
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd.get(), wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return responses;
    }
    off += static_cast<std::size_t>(n);
  }
  ResponseScanner scanner;
  while (responses.size() < expected) {
    const ReadStatus status = scanner.read_from(fd.get());
    while (const auto resp = scanner.next())
      responses.push_back({resp->status, resp->keep_alive,
                           std::string(resp->headers),
                           std::string(resp->body)});
    scanner.consume();
    if (scanner.failed() || status == ReadStatus::kClosed) return responses;
  }
  return responses;
}

TEST(LiveObs, MetricsFramingSurvivesPersistentConnections) {
  // Minimal standalone cluster: one worker, WRR belief router, a 1-shard
  // front end serving the distributor's built-in /metrics snapshot.
  const trace::BuiltWorkload built = trace::build(obs_spec());
  const trace::Workload wl = trace::build_workload(built.trace.records);
  SiteStore store(wl.files);
  BackendWorker worker(0, store, /*cache_capacity=*/1 << 20);
  ASSERT_TRUE(worker.start());
  core::ExperimentConfig cfg;
  cfg.workload = obs_spec();
  cfg.policy = core::PolicyKind::kWrr;
  cfg.params.num_backends = 1;
  LiveRouter router(cfg, nullptr, wl.files, /*demand_bytes=*/1 << 20,
                    /*pinned_bytes=*/0);
  scale::ShardedFrontend fe({&router}, store, {&worker}, {});
  ASSERT_TRUE(fe.start());

  // Two pipelined /metrics scrapes plus /slo on ONE keep-alive
  // connection: a wrong Content-Length would mis-frame every response
  // after the first.
  const std::string wire = format_request("/metrics") +
                           format_request("/metrics") +
                           format_request("/slo");
  const std::vector<OwnedResponse> responses =
      pipelined_exchange(fe.port(), wire, 3);
  ASSERT_EQ(responses.size(), 3u);

  for (int i = 0; i < 2; ++i) {
    const OwnedResponse& resp = responses[static_cast<std::size_t>(i)];
    EXPECT_EQ(resp.status, 200) << i;
    EXPECT_TRUE(resp.keep_alive) << i;
    const auto type = resp.header("Content-Type");
    ASSERT_TRUE(type.has_value()) << i;
    EXPECT_EQ(*type, "text/plain; version=0.0.4; charset=utf-8") << i;
    const auto length = resp.header("Content-Length");
    ASSERT_TRUE(length.has_value()) << i;
    EXPECT_EQ(std::stoul(std::string(*length)), resp.body.size()) << i;
    EXPECT_NE(resp.body.find("prord_live_requests_total"), std::string::npos)
        << i;
  }

  const OwnedResponse& slo = responses[2];
  EXPECT_EQ(slo.status, 200);
  const auto type = slo.header("Content-Type");
  ASSERT_TRUE(type.has_value());
  EXPECT_EQ(*type, "application/json");
  const util::JsonValue doc = util::json_parse(slo.body);
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("objectives"), nullptr);
  EXPECT_NE(doc.find("violating"), nullptr);

  fe.stop();
  worker.stop();
}

TEST(LiveObs, SloScrapeAndSpanExportEndToEnd) {
  const std::string trace_path = ::testing::TempDir() + "live_obs_spans.jsonl";
  LiveConfig cfg = obs_config();
  cfg.trace_out = trace_path;
  const LiveRunResult r = scale::run_live_sharded(cfg);
  ASSERT_TRUE(r.started);
  ASSERT_GT(r.trace_spans, 0u);

  // The live /slo scrape is valid JSON with both burn-rate windows.
  ASSERT_FALSE(r.slo_scrape.empty());
  const util::JsonValue slo = util::json_parse(r.slo_scrape);
  ASSERT_NE(slo.find("short"), nullptr);
  ASSERT_NE(slo.find("long"), nullptr);
  EXPECT_GT(slo.find("cumulative")->find("total")->as_number(), 0.0);

  // The tracing/SLO series made it into the Prometheus scrape.
  EXPECT_NE(r.metrics_scrape.find("prord_live_trace_spans_total"),
            std::string::npos);
  EXPECT_NE(r.metrics_scrape.find("prord_live_slo_burn_rate"),
            std::string::npos);

  // Exported JSONL: one parseable wall-clock line per span.
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::JsonValue span = util::json_parse(line);
    ASSERT_TRUE(span.is_object()) << lines;
    EXPECT_EQ(span.find("clock")->as_string(), "wall") << lines;
    ASSERT_NE(span.find("trace"), nullptr) << lines;
    ASSERT_NE(span.find("hops"), nullptr) << lines;
    ++lines;
  }
  EXPECT_EQ(lines, r.spans.size());
}

TEST(LiveObs, SloViolationDumpsFlightRecorder) {
  obs::FlightRecorder::instance().reset();
  const std::string dump_path = ::testing::TempDir() + "live_obs_flight.json";
  LiveConfig cfg = obs_config();
  cfg.requests = 3000;
  cfg.concurrency = 8;
  cfg.flight_dump_path = dump_path;
  // An impossible objective: every request is bad, so both burn-rate
  // windows exceed the alert as soon as they hold any traffic.
  cfg.slo.latency_objective_us = 0;
  cfg.slo.availability_objective = 0.9;
  cfg.slo.burn_alert = 1.0;
  cfg.slo.slice_us = 10'000;
  cfg.slo.short_window_us = 20'000;
  cfg.slo.long_window_us = 40'000;
  const LiveRunResult r = scale::run_live_sharded(cfg);
  ASSERT_TRUE(r.started);
  EXPECT_GE(r.slo_violations, 1u);
  ASSERT_GE(r.flight_dumps, 1u);
  EXPECT_TRUE(r.slo.violating);

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.is_open());
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const util::JsonValue doc = util::json_parse(body);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("reason")->as_string(), "slo");
  const util::JsonValue* rings = doc.find("rings");
  ASSERT_NE(rings, nullptr);
  ASSERT_FALSE(rings->items().empty());
  bool saw_distributor = false;
  bool saw_events = false;
  for (const util::JsonValue& ring : rings->items()) {
    if (ring.find("name")->as_string() == "distributor") saw_distributor = true;
    if (!ring.find("events")->items().empty()) saw_events = true;
  }
  EXPECT_TRUE(saw_distributor);
  EXPECT_TRUE(saw_events);
  obs::FlightRecorder::instance().reset();
}

}  // namespace
}  // namespace prord::net
