#include "net/distributor.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <utility>

#include "obs/flight_recorder.h"

namespace prord::net {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::uint64_t kListenKey = 0;

/// Accepted connections per listen-readable event before yielding back to
/// the event loop. Bounds accept-storm starvation of in-flight requests;
/// level-triggered epoll re-arms immediately if more are queued.
constexpr int kAcceptBurst = 64;

/// Prediction-context length per client connection (mirrors the Prord
/// policy's max_history default).
constexpr std::size_t kPredictHistory = 8;

/// Header marking a distributor-generated cache-warming request.
constexpr std::string_view kPrefetchHeader = "X-Prord-Prefetch: 1\r\n";

/// Content type served for /metrics (Prometheus text exposition 0.0.4).
constexpr std::string_view kMetricsContentType =
    "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
constexpr std::string_view kJsonContentType =
    "Content-Type: application/json\r\n";

std::string relay_headers(const HttpResponse& resp) {
  // Forward the worker's diagnostic headers; everything else (framing,
  // connection management) is re-written by the distributor.
  std::string extra;
  for (const auto& [k, v] : resp.headers)
    if (k.starts_with("X-")) extra += k + ": " + v + "\r\n";
  return extra;
}

/// Non-negative integer header value; `fallback` when absent/malformed.
std::int64_t header_i64(const HttpResponse& resp, std::string_view name,
                        std::int64_t fallback) {
  const std::string* v = resp.header(name);
  if (v == nullptr) return fallback;
  std::int64_t out = 0;
  const auto [p, ec] =
      std::from_chars(v->data(), v->data() + v->size(), out);
  if (ec != std::errc{} || p != v->data() + v->size() || out < 0)
    return fallback;
  return out;
}

}  // namespace

Distributor::Distributor(LiveRouter& router, const SiteStore& site,
                         std::vector<BackendWorker*> workers)
    : router_(router),
      site_(site),
      workers_(std::move(workers)),
      next_client_key_(1 + workers_.size()) {}

Distributor::~Distributor() { stop(); }

void Distributor::configure_obs(DistributorObsOptions options) {
  if (started_) return;
  obs_ = std::move(options);
  trace_sampler_ = obs::Tracer(obs_.trace_sample_rate);
  slo_ = obs::SloMonitor(obs_.slo);
  spans_.clear();
  spans_.reserve(std::min<std::size_t>(obs_.max_spans, 4096));
}

void Distributor::configure_shard(DistributorShardOptions options) {
  if (started_) return;
  shard_ = std::move(options);
  if (shard_.num_shards == 0) shard_.num_shards = 1;
}

void Distributor::set_predictor(predict::IPredictor* service,
                                double min_confidence, std::size_t fanout) {
  if (started_ || service == nullptr) return;
  predict_link_ = service->register_link();
  prefetch_min_confidence_ = min_confidence;
  prefetch_fanout_ = std::max<std::size_t>(1, fanout);
}

bool Distributor::start() {
  if (started_) return true;
  if (!loop_.valid()) return false;

  upstreams_.clear();
  upstreams_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Upstream up;
    up.worker = static_cast<std::uint32_t>(i);
    up.fd = connect_loopback(workers_[i]->port());
    if (!up.fd || !set_nonblocking(up.fd.get())) return false;
    if (!loop_.add(up.fd.get(), EPOLLIN, 1 + i)) return false;
    upstreams_.push_back(std::move(up));
  }

  // The front end pre-bound this shard's listen socket (an SO_REUSEPORT
  // group member or the lone listener); without one, connections arrive
  // only through adopt_client().
  listen_ = std::move(shard_.listen);
  if (listen_.valid()) {
    if (!set_nonblocking(listen_.get())) return false;
    // EPOLLEXCLUSIVE keeps a shared listen socket from waking every
    // shard per connection; falls back to a plain add on old kernels.
    if (!loop_.add_listener(listen_.get(), kListenKey)) return false;
  }

  router_.start();  // schedules the policy's periodic belief work
  t0_ = std::chrono::steady_clock::now();
  next_slo_eval_us_ = slo_.options().slice_us;
  started_ = true;
  thread_ = std::thread([this] { run(); });
  return true;
}

void Distributor::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  loop_.wake();
  if (thread_.joinable()) thread_.join();
  router_.finish();
  // Waste accounting: everything issued that no client ever hit.
  const std::uint64_t issued = counters_.prefetch_issued.load();
  const std::uint64_t hits = counters_.prefetch_hits.load();
  counters_.prefetch_wasted.store(issued > hits ? issued - hits : 0);
  started_ = false;
}

void Distributor::run() {
  obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  if (flight.enabled())
    flight.name_thread_ring(
        shard_.num_shards > 1
            ? "distributor-shard" + std::to_string(shard_.shard_id)
            : "distributor");
  // Wide event batch: one epoll_wait drains a whole accept storm or
  // response burst. Sharded loops poll faster so an idle shard still
  // gossips near its interval.
  std::array<epoll_event, 256> events;
  const int timeout_ms = shard_.tick ? 10 : 100;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = loop_.wait(events, timeout_ms);
    if (n < 0) break;
    drain_adopted();
    // Keep the belief clock moving even while idle, so periodic policy
    // work (PRORD replication rounds) fires on schedule.
    const std::int64_t tick_us = elapsed_us();
    router_.advance_to(tick_us);
    slo_tick(tick_us);
    if (shard_.tick) shard_.tick(tick_us);
    // SIGUSR2 handlers call request_dump(); the 100 ms epoll timeout
    // bounds how long the request waits for this poll.
    if (flight.consume_dump_request())
      flight_dump(tick_us, "sigusr2", /*force=*/true);
    for (int i = 0; i < n; ++i) {
      const auto& ev = events[static_cast<std::size_t>(i)];
      const std::uint64_t key = ev.data.u64;
      if (key == EpollLoop::kWakeKey) continue;
      if (key == kListenKey) {
        accept_clients();
        continue;
      }
      if (key >= 1 && key <= upstreams_.size()) {
        Upstream& up = upstreams_[key - 1];
        if (!up.fd.valid()) continue;
        if (ev.events & (EPOLLHUP | EPOLLERR)) {
          fail_upstream(up);
          continue;
        }
        if (ev.events & EPOLLIN) handle_upstream_readable(up);
        if (up.fd.valid() && (ev.events & EPOLLOUT) && !flush_upstream(up))
          fail_upstream(up);
        continue;
      }
      auto it = clients_.find(key);
      if (it == clients_.end()) continue;
      ClientConn& conn = it->second;
      bool dead = (ev.events & (EPOLLHUP | EPOLLERR)) != 0;
      if (!dead && (ev.events & EPOLLIN)) handle_client_readable(conn);
      if (!dead && (ev.events & (EPOLLIN | EPOLLOUT)))
        dead = !flush_client(conn);
      if (!dead && conn.parser.failed() && conn.out.empty()) dead = true;
      // A closing connection lingers until every routed request answered
      // and flushed (otherwise closed-loop clients would hang).
      if (!dead && conn.closing && conn.done.empty() &&
          conn.next_flush == conn.next_seq && conn.out.empty())
        dead = true;
      if (dead) drop_client(key);
    }
  }
}

void Distributor::accept_clients() {
  int burst = 0;
  while (burst < kAcceptBurst) {
    const int cfd = ::accept4(listen_.get(), nullptr, nullptr,
                              SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        counters_.accept_eagain.fetch_add(1, std::memory_order_relaxed);
      } else if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: the connection stays in the backlog and the
        // level-triggered loop retries; counting it makes fd-limit
        // pressure visible instead of a silent stall.
        counters_.accept_emfile.fetch_add(1, std::memory_order_relaxed);
      }
      // Anything else (ECONNABORTED etc.) is a per-connection failure;
      // yield and let the next readable event resume the drain.
      break;
    }
    ++burst;
    counters_.accepts.fetch_add(1, std::memory_order_relaxed);
    if (!shard_.handoff_peers.empty()) {
      Distributor* peer =
          shard_.handoff_peers[next_handoff_++ % shard_.handoff_peers.size()];
      if (peer != this) {
        counters_.handoff_out.fetch_add(1, std::memory_order_relaxed);
        peer->adopt_client(cfd);
        continue;
      }
    }
    register_client(Fd(cfd));
  }
  // Hitting the cap means a genuine storm: epoll (level-triggered)
  // re-reports the listener immediately, so nothing is lost — but count
  // it so storms show in metrics.
  if (burst == kAcceptBurst)
    counters_.accept_bursts.fetch_add(1, std::memory_order_relaxed);
}

void Distributor::register_client(Fd fd) {
  set_nodelay(fd.get());
  const std::uint64_t key = next_client_key_++;
  const int raw = fd.get();
  ClientConn conn;
  conn.fd = std::move(fd);
  conn.key = key;
  conn.conn_id = next_conn_id_++;
  auto [it, ok] = clients_.emplace(key, std::move(conn));
  if (ok && !loop_.add(raw, EPOLLIN, key)) clients_.erase(it);
}

void Distributor::adopt_client(int fd) {
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    adopt_inbox_.emplace_back(fd);
  }
  counters_.adopted.fetch_add(1, std::memory_order_relaxed);
  loop_.wake();
}

void Distributor::drain_adopted() {
  std::vector<Fd> batch;
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    if (adopt_inbox_.empty()) return;
    batch.swap(adopt_inbox_);
  }
  for (Fd& fd : batch) register_client(std::move(fd));
}

void Distributor::handle_client_readable(ClientConn& conn) {
  // Live-span arrival stamp: every request parsed out of this burst became
  // readable no later than now.
  conn.read_enter_us = elapsed_us();
  char buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      if (!conn.parser.consume(
              std::string_view(buf, static_cast<std::size_t>(n)))) {
        counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
        conn.closing = true;
      }
      while (auto req = conn.parser.pop()) handle_request(conn, *req);
      continue;
    }
    if (n == 0) {
      conn.closing = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn.closing = true;
    return;
  }
}

void Distributor::handle_request(ClientConn& conn, const HttpRequest& req) {
  const std::uint64_t seq = conn.next_seq++;
  if (!req.keep_alive) conn.closing = true;

  if (req.target == "/metrics") {
    counters_.metrics_scrapes.fetch_add(1, std::memory_order_relaxed);
    const std::string body =
        metrics_fn_ ? metrics_fn_()
                    : "prord_live_requests_total " +
                          std::to_string(counters_.requests.load()) + "\n";
    local_reply(conn, seq, 200, "OK", body, kMetricsContentType);
    return;
  }
  if (req.target == "/slo") {
    local_reply(conn, seq, 200, "OK",
                slo_fn_ ? slo_fn_() : slo_.to_json(elapsed_us()) + "\n",
                kJsonContentType);
    return;
  }

  const std::uint64_t req_index =
      counters_.requests.fetch_add(1, std::memory_order_relaxed);
  const sim::SimTime now_us = elapsed_us();
  router_.advance_to(now_us);

  const trace::FileId file = site_.lookup(req.target);
  if (file == trace::kInvalidFile) {
    counters_.not_found.fetch_add(1, std::memory_order_relaxed);
    local_reply(conn, seq, 404, "Not Found", "unknown url\n");
    return;
  }

  trace::Request r;
  r.at = now_us;
  r.client = conn.conn_id;
  r.conn = conn.conn_id;
  r.file = file;
  r.bytes = site_.size_bytes(file);
  r.is_embedded = site_.is_embedded(file);
  r.is_dynamic = site_.is_dynamic(file);
  r.starts_connection = (seq == 0);

  const core::RoutedRequest routed = router_.route(r);
  if (!routed.valid) {
    counters_.failures.fetch_add(1, std::memory_order_relaxed);
    slo_record(now_us, 0, /*success=*/false);
    local_reply(conn, seq, 503, "Service Unavailable", "no backend\n");
    return;
  }
  Upstream& up = upstreams_[routed.decision.server];
  if (!up.fd.valid()) {
    // Routed to a worker whose upstream link already died: undo the
    // connection stickiness and answer 502.
    router_.core().unstick(r.conn, routed.decision.server);
    counters_.failures.fetch_add(1, std::memory_order_relaxed);
    slo_record(now_us, 0, /*success=*/false);
    local_reply(conn, seq, 502, "Bad Gateway", "backend down\n");
    return;
  }
  obs::flight_record(obs::FlightEventType::kRouteDecision,
                     routed.decision.server, file, req_index);

  Pending p;
  p.client_key = conn.key;
  p.seq = seq;
  p.request = r;
  p.t_in_us = now_us;
  std::string extra_headers;
  if (trace_sampler_.enabled() && trace_sampler_.sampled(req_index)) {
    auto span = std::make_unique<obs::LiveSpan>();
    span->id = obs::derive_trace_id(obs_.trace_seed, req_index);
    span->request = req_index;
    span->shard = shard_.shard_id;
    span->conn = conn.conn_id;
    span->file = file;
    span->bytes = r.bytes;
    span->server = routed.decision.server;
    span->via = routed.decision.via;
    span->arrival = conn.read_enter_us;
    // Hop 0 originates here; the worker echoes its own timing back in
    // X-Prord-Serve-Us / X-Prord-Cache-Us response headers.
    extra_headers.append("X-Prord-Trace: ")
        .append(obs::format_trace_header({span->id, 0}))
        .append("\r\n");
    const std::int64_t t_routed = elapsed_us();
    p.t_routed_us = t_routed;
    span->hop_us[static_cast<unsigned>(obs::LiveHop::kParse)] =
        std::max<std::int64_t>(0, now_us - span->arrival);
    span->hop_us[static_cast<unsigned>(obs::LiveHop::kRoute)] =
        t_routed - now_us;
    p.trace = std::move(span);
  } else {
    p.t_routed_us = now_us;
  }

  up.pending.push_back(std::move(p));
  up.out.push(format_request(req.target,
                             "backend" + std::to_string(up.worker),
                             extra_headers));
  router_.on_forwarded(r, routed.decision.server);
  const bool ok = flush_upstream(up);
  // Stamp the kernel-handoff time on the request just queued (it is the
  // deque's back unless fail_upstream already swept the deque).
  if (!up.pending.empty() && up.pending.back().seq == seq &&
      up.pending.back().client_key == conn.key)
    up.pending.back().t_sent_us = elapsed_us();
  if (!ok) {
    fail_upstream(up);
    return;
  }
  // Prediction feed + proactive prefetch ride *after* the client request
  // is on the wire: the demand path never waits on the predictor.
  predict_and_prefetch(conn, r, routed.decision.server, req_index, now_us);
}

void Distributor::predict_and_prefetch(ClientConn& conn,
                                       const trace::Request& r,
                                       std::uint32_t server,
                                       std::uint64_t req_index,
                                       std::int64_t now_us) {
  if (!predict_link_ || r.is_dynamic) return;
  predict::Observation obs;
  obs.conn = conn.conn_id;
  obs.file = r.file;
  obs.main_page = !r.is_embedded;
  obs.t_us = now_us;
  predict_link_->feed(obs);
  if (r.is_embedded) return;

  conn.history.push_back(r.file);
  if (conn.history.size() > kPredictHistory)
    conn.history.erase(conn.history.begin());

  const auto assocs =
      predict_link_->associations(conn.history, prefetch_fanout_);
  for (const predict::Association& a : assocs) {
    if (a.confidence < prefetch_min_confidence_) continue;
    issue_prefetch(server, a.file, req_index, now_us);
  }
}

void Distributor::issue_prefetch(std::uint32_t server, trace::FileId file,
                                 std::uint64_t req_index,
                                 std::int64_t now_us) {
  if (file == trace::kInvalidFile || file >= site_.count()) return;
  if (prefetch_inflight_.contains(file) || prefetch_ready_.contains(file))
    return;  // already warming / warmed and unconsumed
  Upstream& up = upstreams_[server];
  if (!up.fd.valid()) return;
  if (site_.is_dynamic(file)) return;  // generated per request
  // The belief model already knows what the worker holds: prefetching a
  // resident file would only burn a loopback round trip.
  if (router_.cluster().backend(server).caches(file)) return;

  Pending p;
  p.prefetch = true;
  p.request.file = file;
  p.request.conn = 0;
  p.t_in_us = now_us;
  p.t_routed_us = now_us;
  up.pending.push_back(std::move(p));
  up.out.push(format_request(site_.url(file),
                             "backend" + std::to_string(up.worker),
                             kPrefetchHeader));
  counters_.prefetch_issued.fetch_add(1, std::memory_order_relaxed);
  prefetch_inflight_.emplace(file, server);
  obs::flight_record(obs::FlightEventType::kPrefetchIssue, server, file,
                     req_index);
  if (!flush_upstream(up)) fail_upstream(up);
}

void Distributor::local_reply(ClientConn& conn, std::uint64_t seq, int status,
                              std::string_view reason, std::string_view body,
                              std::string_view extra_headers) {
  DoneEntry entry;
  entry.bytes = format_response(status, reason, body, extra_headers);
  entry.t_done_us = elapsed_us();
  finish_response(conn, seq, std::move(entry));
}

void Distributor::finish_response(ClientConn& conn, std::uint64_t seq,
                                  DoneEntry entry) {
  conn.done.emplace(seq, std::move(entry));
  pump_client(conn);
}

void Distributor::pump_client(ClientConn& conn) {
  while (!conn.done.empty() &&
         conn.done.begin()->first == conn.next_flush) {
    DoneEntry& entry = conn.done.begin()->second;
    conn.out.push(std::move(entry.bytes));
    if (entry.trace) {
      // Last hop: how long the response sat behind earlier sequence
      // numbers. completion - arrival now equals the hop sum exactly.
      const std::int64_t t_out = elapsed_us();
      entry.trace->hop_us[static_cast<unsigned>(obs::LiveHop::kReorderHold)] =
          std::max<std::int64_t>(0, t_out - entry.t_done_us);
      entry.trace->completion =
          entry.trace->arrival + entry.trace->hop_sum();
      complete_span(std::move(entry.trace));
    }
    conn.done.erase(conn.done.begin());
    ++conn.next_flush;
  }
  flush_client(conn);
}

bool Distributor::flush_client(ClientConn& conn) {
  // One vectored sendmsg flushes every queued response (up to the iovec
  // cap) — a pipelined burst costs one syscall, not one per response.
  if (!conn.out.flush(conn.fd.get()))
    return false;  // peer is gone; EPOLLHUP will reap the connection
  if (!conn.out.empty()) {
    if (!conn.want_write) {
      conn.want_write = true;
      loop_.mod(conn.fd.get(), EPOLLIN | EPOLLOUT, conn.key);
    }
  } else if (conn.want_write) {
    conn.want_write = false;
    loop_.mod(conn.fd.get(), EPOLLIN, conn.key);
  }
  return true;
}

void Distributor::drop_client(std::uint64_t key) {
  auto it = clients_.find(key);
  if (it == clients_.end()) return;
  router_.forget_connection(it->second.conn_id);
  loop_.del(it->second.fd.get());
  clients_.erase(it);
}

void Distributor::handle_upstream_readable(Upstream& up) {
  char buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(up.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      if (!up.parser.consume(
              std::string_view(buf, static_cast<std::size_t>(n)))) {
        fail_upstream(up);
        return;
      }
      while (auto resp = up.parser.pop()) {
        if (up.pending.empty()) {
          fail_upstream(up);  // response with no matching request
          return;
        }
        Pending p = std::move(up.pending.front());
        up.pending.pop_front();
        const std::int64_t t_resp = elapsed_us();
        if (p.prefetch) {
          // Cache-warming ack: the file is resident upstream now. Nothing
          // client-facing moves — not the router belief, not the response
          // counter, not the SLO windows.
          counters_.prefetch_responses.fetch_add(1,
                                                 std::memory_order_relaxed);
          if (prefetch_inflight_.erase(p.request.file) > 0 &&
              resp->status == 200)
            prefetch_ready_.insert(p.request.file);
          continue;
        }
        router_.advance_to(t_resp);
        router_.on_response(p.request, up.worker);
        counters_.responses.fetch_add(1, std::memory_order_relaxed);
        slo_record(t_resp, t_resp - p.t_in_us, resp->status < 500);
        // Prefetch-hit attribution: a client request answered from cache
        // on a file this distributor warmed counts once, then re-arms.
        if (!prefetch_ready_.empty()) {
          const std::string* cache = resp->header("X-Cache");
          if (cache != nullptr && *cache == "HIT" &&
              prefetch_ready_.erase(p.request.file) > 0)
            counters_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
        }
        auto cit = clients_.find(p.client_key);
        if (cit == clients_.end()) continue;  // client left mid-flight
        DoneEntry entry;
        entry.bytes = format_response(resp->status, resp->reason, resp->body,
                                      relay_headers(*resp));
        entry.t_done_us = elapsed_us();
        if (p.trace) {
          // Split distributor-measured wire+queue time from the worker's
          // self-reported handling time. The three segments are clamped
          // to partition [t_sent, t_resp] so the hops keep telescoping
          // even if the worker's clock reads slightly long.
          obs::LiveSpan& span = *p.trace;
          const std::int64_t t_sent =
              p.t_sent_us > 0 ? p.t_sent_us : p.t_routed_us;
          span.hop_us[static_cast<unsigned>(obs::LiveHop::kUpstreamSend)] =
              std::max<std::int64_t>(0, t_sent - p.t_routed_us);
          const std::int64_t round_trip =
              std::max<std::int64_t>(0, t_resp - t_sent);
          const std::int64_t serve_us = std::min(
              header_i64(*resp, obs::kServeUsHeader, 0), round_trip);
          const std::int64_t cache_us =
              std::min(header_i64(*resp, obs::kCacheUsHeader, 0), serve_us);
          span.hop_us[static_cast<unsigned>(obs::LiveHop::kUpstreamWait)] =
              round_trip - serve_us;
          span.hop_us[static_cast<unsigned>(obs::LiveHop::kBackendCache)] =
              cache_us;
          span.hop_us[static_cast<unsigned>(obs::LiveHop::kBackendServe)] =
              serve_us - cache_us;
          span.hop_us[static_cast<unsigned>(obs::LiveHop::kRelay)] =
              std::max<std::int64_t>(0, entry.t_done_us - t_resp);
          span.status = resp->status;
          const std::string* cache = resp->header("X-Cache");
          span.cache_resident = cache != nullptr && *cache == "HIT";
          entry.trace = std::move(p.trace);
        }
        finish_response(cit->second, p.seq, std::move(entry));
      }
      continue;
    }
    if (n == 0) {
      fail_upstream(up);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    fail_upstream(up);
    return;
  }
}

bool Distributor::flush_upstream(Upstream& up) {
  if (!up.out.flush(up.fd.get())) return false;
  if (!up.out.empty()) {
    if (!up.want_write) {
      up.want_write = true;
      loop_.mod(up.fd.get(), EPOLLIN | EPOLLOUT, 1 + up.worker);
    }
  } else if (up.want_write) {
    up.want_write = false;
    loop_.mod(up.fd.get(), EPOLLIN, 1 + up.worker);
  }
  return true;
}

void Distributor::fail_upstream(Upstream& up) {
  if (!up.fd.valid()) return;
  // The worker link died: every in-flight request on it fails with 502,
  // the belief model marks the back-end down (policies route elsewhere),
  // and affected client connections are unstuck.
  const std::int64_t now_us = elapsed_us();
  router_.advance_to(now_us);
  router_.cluster().backend(up.worker).set_marked_down(true);
  obs::flight_record(obs::FlightEventType::kUpstreamFail, up.worker,
                     static_cast<std::uint32_t>(up.pending.size()));
  auto pending = std::move(up.pending);
  up.pending.clear();
  for (Pending& p : pending) {
    if (p.prefetch) {
      // Lost cache-warming request: forget it so another worker may be
      // asked later. No client failure, no SLO sample — there is no
      // client.
      prefetch_inflight_.erase(p.request.file);
      continue;
    }
    router_.on_failure(p.request, up.worker);
    counters_.failures.fetch_add(1, std::memory_order_relaxed);
    slo_record(now_us, now_us - p.t_in_us, /*success=*/false);
    auto cit = clients_.find(p.client_key);
    if (cit == clients_.end()) continue;
    local_reply(cit->second, p.seq, 502, "Bad Gateway", "backend lost\n");
  }
  loop_.del(up.fd.get());
  up.fd.reset();
  up.out.clear();
  flight_dump(now_us, "fault", /*force=*/false);
}

void Distributor::slo_record(std::int64_t now_us, std::int64_t latency_us,
                             bool success) {
  slo_.record(now_us, latency_us, success);
  slo_tick(now_us);
}

void Distributor::slo_tick(std::int64_t now_us) {
  if (now_us < next_slo_eval_us_) return;
  next_slo_eval_us_ = now_us + slo_.options().slice_us;
  const obs::SloEval eval = slo_.evaluate(now_us);
  if (!eval.violating) return;
  counters_.slo_violations.fetch_add(1, std::memory_order_relaxed);
  obs::flight_record(
      obs::FlightEventType::kSloViolation,
      static_cast<std::uint32_t>(std::min(
          eval.short_window.burn_rate * 1000.0, 4.0e9)),
      static_cast<std::uint32_t>(std::min(
          eval.long_window.burn_rate * 1000.0, 4.0e9)));
  flight_dump(now_us, "slo", /*force=*/false);
}

void Distributor::complete_span(std::unique_ptr<obs::LiveSpan> span) {
  if (spans_.size() >= obs_.max_spans) {
    counters_.trace_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(*span);
  counters_.trace_spans.fetch_add(1, std::memory_order_relaxed);
}

void Distributor::flight_dump(std::int64_t now_us, const char* reason,
                              bool force) {
  if (obs_.flight_dump_path.empty()) return;
  obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  if (!flight.enabled()) return;
  if (!force && last_flight_dump_us_ >= 0 &&
      now_us - last_flight_dump_us_ < obs_.flight_dump_cooldown_us)
    return;
  last_flight_dump_us_ = now_us;
  flight.record(obs::FlightEventType::kDump);
  if (flight.dump_to_file(obs_.flight_dump_path, reason))
    counters_.flight_dumps.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace prord::net
