// Front-end relay tests on a one-worker loopback cluster: the bytes a raw
// client receives are the worker's reply verbatim and equal what parsing
// and re-formatting it would produce; a demand request reaches the worker
// before the prefetches it triggers; and a client that pipelines without
// reading is bounded by the per-connection depth limit.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "net/backend_worker.h"
#include "net/distributor.h"
#include "net/http.h"
#include "net/live_router.h"
#include "net/site_store.h"
#include "net/socket.h"
#include "obs/trace_context.h"
#include "predict/predictor_iface.h"
#include "scale/sharded_frontend.h"
#include "trace/models.h"
#include "trace/workload.h"

namespace prord::net {
namespace {

using Clock = std::chrono::steady_clock;

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

/// The relay the front end used to perform: parse the worker's reply,
/// then re-format it with the worker's X- headers in order.
std::string reformat(const ResponseView& resp) {
  std::string extra;
  std::string_view block = resp.headers;
  while (!block.empty()) {
    const std::size_t eol = block.find("\r\n");
    const std::string_view line = block.substr(0, eol);
    block.remove_prefix(eol == std::string_view::npos ? block.size() : eol + 2);
    const std::size_t colon = line.find(':');
    const std::string_view name = trim(line.substr(0, colon));
    if (name.starts_with("X-"))
      extra.append(name).append(": ").append(trim(line.substr(colon + 1)))
          .append("\r\n");
  }
  return format_response(resp.status, resp.reason, resp.body, extra);
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Sends `wire` on a fresh connection and returns the first `expected`
/// replies, each exactly as received.
std::vector<std::string> exchange(std::uint16_t port, const std::string& wire,
                                  std::size_t expected) {
  std::vector<std::string> raw;
  Fd fd = connect_loopback(port);
  if (!fd || !send_all(fd.get(), wire)) return raw;
  ResponseScanner scanner;
  while (raw.size() < expected) {
    const ReadStatus status = scanner.read_from(fd.get());
    while (const auto resp = scanner.next()) raw.emplace_back(resp->raw);
    scanner.consume();
    if (scanner.failed() || status == ReadStatus::kClosed) break;
  }
  return raw;
}

/// Parses one complete reply out of `raw`.
ResponseView parse_one(ResponseScanner& scanner, const std::string& raw) {
  scanner.append(raw);
  const auto resp = scanner.next();
  EXPECT_TRUE(resp.has_value());
  EXPECT_EQ(resp ? resp->raw.size() : 0, raw.size());
  return resp.value_or(ResponseView{});
}

/// One worker behind a 1-shard front end, on a hand-built site.
struct MiniCluster {
  explicit MiniCluster(std::vector<std::pair<std::string, std::uint32_t>>
                           site_files,
                       std::uint64_t cache_bytes,
                       scale::ShardedFrontendOptions fe_options = {})
      : files(make_table(site_files)),
        store(files),
        worker(0, store, cache_bytes),
        router(router_config(), nullptr, files, /*demand_bytes=*/1 << 24,
               /*pinned_bytes=*/0) {
    started = worker.start();
    if (!started) return;
    fe = std::make_unique<scale::ShardedFrontend>(
        std::vector<LiveRouter*>{&router}, store,
        std::vector<BackendWorker*>{&worker}, std::move(fe_options));
    started = fe->start();
  }
  ~MiniCluster() {
    if (fe) fe->stop();
    worker.stop();
  }

  static trace::FileTable make_table(
      const std::vector<std::pair<std::string, std::uint32_t>>& site_files) {
    trace::FileTable t;
    for (const auto& [url, bytes] : site_files) t.intern(url, bytes);
    return t;
  }
  static core::ExperimentConfig router_config() {
    core::ExperimentConfig cfg;
    cfg.workload = trace::synthetic_spec(/*seed=*/7);
    cfg.policy = core::PolicyKind::kWrr;
    cfg.params.num_backends = 1;
    return cfg;
  }

  std::uint16_t port() const { return fe->port(); }
  const Distributor& shard() const { return fe->shard(0); }
  std::string payload(std::string_view url) const {
    return store.make_payload(files.lookup(url));
  }

  trace::FileTable files;
  SiteStore store;
  BackendWorker worker;
  LiveRouter router;
  std::unique_ptr<scale::ShardedFrontend> fe;
  bool started = false;
};

const std::vector<std::pair<std::string, std::uint32_t>> kSite = {
    {"/a.html", 3000}, {"/b.gif", 700}, {"/q.cgi", 900}};

TEST(LiveRelay, ClientBytesEqualTheReformattedWorkerReply) {
  MiniCluster c(kSite, /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(c.started);
  const std::vector<std::string> raw =
      exchange(c.port(),
               format_request("/a.html") + format_request("/a.html") +
                   format_request("/q.cgi") + format_request("/nope.html"),
               4);
  ASSERT_EQ(raw.size(), 4u);

  // MISS, HIT and DYN: the worker's own head, unchanged by the relay.
  const char* const kCache[] = {"MISS", "HIT", "DYN"};
  const char* const kUrl[] = {"/a.html", "/a.html", "/q.cgi"};
  for (std::size_t i = 0; i < 3; ++i) {
    ResponseScanner scanner;
    const ResponseView resp = parse_one(scanner, raw[i]);
    EXPECT_EQ(raw[i], reformat(resp)) << i;
    EXPECT_EQ(raw[i], format_response(200, "OK", c.payload(kUrl[i]),
                                      std::string("X-Backend: 0\r\nX-Cache: ") +
                                          kCache[i] + "\r\n"))
        << i;
  }
  // 404 for a URL outside the site is the front end's own reply.
  EXPECT_EQ(raw[3], format_response(404, "Not Found", "unknown url\n"));
}

TEST(LiveRelay, WorkerRepliesMatchTheirReferenceBytes) {
  MiniCluster c(kSite, /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(c.started);
  const std::string prefetch = "X-Prord-Prefetch: 1\r\n";
  const std::vector<std::string> raw = exchange(
      c.worker.port(),
      format_request("/nope.html", "backend0") +
          format_request("/b.gif", "backend0", prefetch) +
          format_request("/b.gif", "backend0", prefetch) +
          format_request("/q.cgi", "backend0", prefetch) +
          format_request("/b.gif", "backend0"),
      5);
  ASSERT_EQ(raw.size(), 5u);
  EXPECT_EQ(raw[0], format_response(404, "Not Found", "missing\n",
                                    "X-Backend: 0\r\n"));
  // Prefetch acks: a load, then an already-resident file, then a
  // dynamic URL that cannot be warmed.
  EXPECT_EQ(raw[1], format_response(200, "OK", "warmed\n",
                                    "X-Backend: 0\r\nX-Cache: MISS\r\n"));
  EXPECT_EQ(raw[2], format_response(200, "OK", "warmed\n",
                                    "X-Backend: 0\r\nX-Cache: HIT\r\n"));
  EXPECT_EQ(raw[3], format_response(204, "No Content", "",
                                    "X-Backend: 0\r\n"));
  // The warmed payload is served by reference from the cache.
  EXPECT_EQ(raw[4], format_response(200, "OK", c.payload("/b.gif"),
                                    "X-Backend: 0\r\nX-Cache: HIT\r\n"));
}

TEST(LiveRelay, TracedReplyKeepsTheWorkerHeadersInOrder) {
  scale::ShardedFrontendOptions fo;
  fo.obs.trace_sample_rate = 1.0;
  MiniCluster c(kSite, /*cache_bytes=*/1 << 20, fo);
  ASSERT_TRUE(c.started);
  const std::vector<std::string> raw =
      exchange(c.port(), format_request("/a.html"), 1);
  ASSERT_EQ(raw.size(), 1u);
  ResponseScanner scanner;
  const ResponseView resp = parse_one(scanner, raw[0]);
  EXPECT_EQ(raw[0], reformat(resp));
  const auto trace = resp.header(obs::kTraceHeader);
  const auto serve = resp.header(obs::kServeUsHeader);
  const auto cache = resp.header(obs::kCacheUsHeader);
  ASSERT_TRUE(trace && serve && cache);
  EXPECT_EQ(raw[0],
            format_response(200, "OK", c.payload("/a.html"),
                            "X-Backend: 0\r\nX-Cache: MISS\r\n" +
                                std::string(obs::kTraceHeader) + ": " +
                                std::string(*trace) + "\r\n" +
                                std::string(obs::kServeUsHeader) + ": " +
                                std::string(*serve) + "\r\n" +
                                std::string(obs::kCacheUsHeader) + ": " +
                                std::string(*cache) + "\r\n"));
  c.fe->stop();
  ASSERT_EQ(c.shard().spans().size(), 1u);
  const obs::LiveSpan& span = c.shard().spans()[0];
  EXPECT_EQ(span.hop_sum(), span.response_time());
}

/// Predicts `target` after every main page, with full confidence.
class FixedPredictor : public predict::IPredictor {
 public:
  explicit FixedPredictor(trace::FileId target) : target_(target) {}
  std::shared_ptr<predict::IPredictorLink> register_link() override {
    return std::make_shared<Link>(target_);
  }
  predict::PredictorStats stats() const override { return {}; }
  const predict::PredictorParams& params() const override { return params_; }

 private:
  struct Link : predict::IPredictorLink {
    explicit Link(trace::FileId t) : target(t) {}
    void feed(const predict::Observation&) override {}
    std::vector<predict::Association> associations(
        std::span<const trace::FileId>, std::size_t) override {
      return {{target, 1.0}};
    }
    trace::FileId target;
  };
  trace::FileId target_;
  predict::PredictorParams params_;
};

TEST(LiveRelay, DemandReachesTheWorkerBeforeItsPrefetch) {
  // The worker cache holds one of the two equal-size files, so its final
  // content names the request it served last: the prefetch of /q.html
  // must follow the demand for /p.html on the upstream wire.
  const std::vector<std::pair<std::string, std::uint32_t>> site = {
      {"/p.html", 10000}, {"/q.html", 10000}};
  trace::FileTable probe = MiniCluster::make_table(site);
  FixedPredictor predictor(probe.lookup("/q.html"));
  scale::ShardedFrontendOptions fo;
  fo.predictor = &predictor;
  MiniCluster c(site, /*cache_bytes=*/10000, fo);
  ASSERT_TRUE(c.started);
  const std::vector<std::string> raw =
      exchange(c.port(), format_request("/p.html"), 1);
  ASSERT_EQ(raw.size(), 1u);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (c.shard().counters().prefetch_responses.load() < 1 &&
         Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(c.shard().counters().prefetch_issued.load(), 1u);
  ASSERT_EQ(c.shard().counters().prefetch_responses.load(), 1u);
  EXPECT_EQ(c.worker.stats().prefetch_loads.load(), 1u);
  EXPECT_TRUE(c.worker.caches(c.files.lookup("/q.html")));
  EXPECT_FALSE(c.worker.caches(c.files.lookup("/p.html")));
}

TEST(LiveRelay, PipeliningWithoutReadingIsBoundedByTheDepthLimit) {
  // Four large files open the stream: their 64 replies hold far more than
  // the kernel buffers between the front end and a client that reads
  // nothing, so the front end's queue stays past its byte bound and the
  // connection is not read again. Small files fill the rest.
  constexpr std::size_t kRequests = 10000;
  constexpr std::uint32_t kBig = 256 * 1024;
  // Replies the kernel takes off the front end's queue count as answered,
  // so they free depth: the socket buffers (tcp_wmem's 4 MiB ceiling) hold
  // at most this many large replies.
  constexpr std::uint64_t kKernelSlack = (4u << 20) / kBig + 1;
  std::vector<std::pair<std::string, std::uint32_t>> site;
  for (int i = 0; i < 4; ++i)
    site.emplace_back("/big" + std::to_string(i) + ".html", kBig);
  for (int i = 0; i < 16; ++i)
    site.emplace_back("/s" + std::to_string(i) + ".html",
                      static_cast<std::uint32_t>(100 + 13 * i));
  MiniCluster c(site, /*cache_bytes=*/8 << 20);
  ASSERT_TRUE(c.started);

  std::vector<std::string> urls;
  std::string wire;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::size_t f = i < Distributor::kMaxPipelineDepth ? i % 4
                                                             : 4 + i % 16;
    urls.push_back(site[f].first);
    wire += format_request(urls.back());
  }

  const int raw_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(raw_fd, 0);
  Fd fd(raw_fd);
  const int small = 16 * 1024;  // keep the client's own buffer small
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(c.port());
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_TRUE(set_nonblocking(fd.get()));

  // Phase 1: write as much of the stream as the socket takes; read nothing.
  std::size_t sent = 0;
  const auto send_some = [&] {
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd.get(), wire.data() + sent,
                               wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  };
  const auto phase1_end = Clock::now() + std::chrono::milliseconds(500);
  while (Clock::now() < phase1_end) {
    send_some();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(sent, wire.size() / 10);  // the front end had plenty to parse
  const std::uint64_t parsed = c.shard().counters().requests.load();
  EXPECT_GE(parsed, Distributor::kMaxPipelineDepth);
  EXPECT_LE(parsed, Distributor::kMaxPipelineDepth + kKernelSlack);
  // Paused, not merely slow: nothing more is parsed while nothing is read.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  send_some();
  EXPECT_EQ(c.shard().counters().requests.load(), parsed);

  // Phase 2: read; every reply arrives, in request order.
  ResponseScanner scanner;
  std::size_t got = 0;
  std::vector<std::string> payloads(site.size());
  for (std::size_t f = 0; f < site.size(); ++f)
    payloads[f] = c.payload(site[f].first);
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (got < kRequests && Clock::now() < deadline) {
    send_some();
    pollfd p{fd.get(), POLLIN, 0};
    if (sent < wire.size()) p.events |= POLLOUT;
    ::poll(&p, 1, 100);
    const ReadStatus status = scanner.read_from(fd.get());
    while (const auto resp = scanner.next()) {
      ASSERT_LT(got, kRequests);
      const std::string& want = payloads[c.files.lookup(urls[got])];
      ASSERT_EQ(resp->status, 200) << got;
      ASSERT_TRUE(resp->body == want) << "reply " << got << " out of order";
      ++got;
    }
    scanner.consume();
    ASSERT_FALSE(scanner.failed());
    ASSERT_NE(status, ReadStatus::kClosed);
  }
  EXPECT_EQ(got, kRequests);
  EXPECT_EQ(c.shard().counters().requests.load(), kRequests);
}

}  // namespace
}  // namespace prord::net
