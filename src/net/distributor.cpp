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

/// Non-negative integer header value; `fallback` when absent/malformed.
std::int64_t header_i64(const ResponseView& resp, std::string_view name,
                        std::int64_t fallback) {
  const std::optional<std::string_view> v = resp.header(name);
  if (!v) return fallback;
  std::int64_t out = 0;
  const auto [p, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
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
    up.host = "backend" + std::to_string(i);
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
        if (up.fd.valid() && (ev.events & EPOLLOUT)) mark_dirty(up);
        continue;
      }
      auto it = clients_.find(key);
      if (it == clients_.end()) continue;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        drop_client(key);
        continue;
      }
      ClientConn& conn = it->second;
      if (ev.events & EPOLLIN) handle_client_readable(conn);
      mark_dirty(conn);
    }
    end_pass();
  }
}

void Distributor::end_pass() {
  while (!dirty_upstreams_.empty() || !dirty_clients_.empty()) {
    // One sendmsg per upstream carries every request routed to it this
    // pass; the whole batch shares its kernel-handoff stamp.
    for (const std::uint32_t worker : dirty_upstreams_) {
      Upstream& up = upstreams_[worker];
      up.dirty = false;
      if (!up.fd.valid()) continue;
      if (!flush_watching(loop_, up.fd.get(), 1 + up.worker, up.out,
                          up.want_write)) {
        fail_upstream(up);
        continue;
      }
      const std::int64_t t_sent = elapsed_us();
      for (auto p = up.pending.rbegin();
           p != up.pending.rend() && p->t_sent_us == 0; ++p)
        p->t_sent_us = t_sent;
    }
    dirty_upstreams_.clear();
    // Prediction feeds and proactive prefetch ride *after* the demand
    // batch is on the wire: the demand path never waits on the predictor.
    // Their prefetch GETs go out in a second flush of this pass.
    if (!feeds_.empty()) {
      for (const Feed& feed : feeds_) predict_and_prefetch(feed);
      feeds_.clear();
      continue;
    }
    // Clients last: one sendmsg each for every response relayed this pass.
    // A resumed reader may route new requests, so the loop goes round
    // until nothing is dirty.
    settling_.swap(dirty_clients_);
    for (const std::uint64_t key : settling_) {
      auto it = clients_.find(key);
      if (it == clients_.end()) continue;
      it->second.dirty = false;
      settle_client(it->second);
    }
    settling_.clear();
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

bool Distributor::backlogged(const ClientConn& conn) {
  return conn.next_seq - conn.next_flush >= kMaxPipelineDepth ||
         conn.out.size() >= kMaxQueuedResponseBytes;
}

void Distributor::handle_client_readable(ClientConn& conn) {
  // Live-span arrival stamp: every request parsed out of this burst became
  // readable no later than now.
  conn.read_enter_us = elapsed_us();
  bool drained = false;
  while (true) {
    // Requests already buffered go first (they are all there is when a
    // paused connection resumes).
    while (!conn.closing && !backlogged(conn)) {
      const std::optional<RequestView> req = conn.scanner.next();
      if (!req) break;
      handle_request(conn, *req);
    }
    conn.scanner.consume();
    if (conn.scanner.failed() && !conn.closing) {
      counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
      conn.closing = true;
    }
    if (conn.closing) return;
    if (backlogged(conn)) {
      // Stop reading until the client drains its responses: a client that
      // pipelines without reading must not grow the front end's memory.
      conn.paused = true;
      return;
    }
    if (drained) return;
    switch (conn.scanner.read_from(conn.fd.get())) {
      case ReadStatus::kClosed:
        conn.closing = true;
        return;
      case ReadStatus::kDrained:
        drained = true;  // handle what arrived, then stop
        break;
      case ReadStatus::kMore:
        break;
    }
  }
}

void Distributor::handle_request(ClientConn& conn, const RequestView& req) {
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
  const std::uint32_t server = routed.decision.server;
  Upstream& up = upstreams_[server];
  if (!up.fd.valid()) {
    // Routed to a worker whose upstream link already died: undo the
    // connection stickiness and answer 502.
    router_.core().unstick(r.conn, server);
    counters_.failures.fetch_add(1, std::memory_order_relaxed);
    slo_record(now_us, 0, /*success=*/false);
    local_reply(conn, seq, 502, "Bad Gateway", "backend down\n");
    return;
  }
  obs::flight_record(obs::FlightEventType::kRouteDecision, server, file,
                     req_index);

  Pending p;
  p.client_key = conn.key;
  p.seq = seq;
  p.request = r;
  p.t_in_us = now_us;
  p.t_routed_us = now_us;
  std::string trace_line;  ///< X-Prord-Trace header, traced requests only
  if (trace_sampler_.enabled() && trace_sampler_.sampled(req_index)) {
    auto span = std::make_unique<obs::LiveSpan>();
    span->id = obs::derive_trace_id(obs_.trace_seed, req_index);
    span->request = req_index;
    span->shard = shard_.shard_id;
    span->conn = conn.conn_id;
    span->file = file;
    span->bytes = r.bytes;
    span->server = server;
    span->via = routed.decision.via;
    span->arrival = conn.read_enter_us;
    // Hop 0 originates here; the worker echoes its own timing back in
    // X-Prord-Serve-Us / X-Prord-Cache-Us response headers.
    trace_line.append(obs::kTraceHeader).append(": ");
    trace_line.append(obs::format_trace_header({span->id, 0})).append("\r\n");
    p.t_routed_us = elapsed_us();
    span->hop_us[static_cast<unsigned>(obs::LiveHop::kParse)] =
        std::max<std::int64_t>(0, now_us - span->arrival);
    span->hop_us[static_cast<unsigned>(obs::LiveHop::kRoute)] =
        p.t_routed_us - now_us;
    p.trace = std::move(span);
  }

  up.pending.push_back(std::move(p));
  up.out.write([&](std::string& out) {
    append_request(out, req.target, up.host, trace_line);
  });
  router_.on_forwarded(r, server);
  mark_dirty(up);
  if (predict_link_ && !r.is_dynamic)
    feeds_.push_back({conn.key, r, server, req_index});
}

void Distributor::predict_and_prefetch(const Feed& feed) {
  const trace::Request& r = feed.request;
  predict::Observation obs;
  obs.conn = r.conn;
  obs.file = r.file;
  obs.main_page = !r.is_embedded;
  obs.t_us = r.at;
  predict_link_->feed(obs);
  if (r.is_embedded) return;
  auto it = clients_.find(feed.client_key);
  if (it == clients_.end()) return;  // client left within the pass

  std::vector<trace::FileId>& history = it->second.history;
  history.push_back(r.file);
  if (history.size() > kPredictHistory) history.erase(history.begin());

  const auto assocs = predict_link_->associations(history, prefetch_fanout_);
  for (const predict::Association& a : assocs) {
    if (a.confidence < prefetch_min_confidence_) continue;
    issue_prefetch(feed.server, a.file, feed.req_index, r.at);
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
  up.out.write([&](std::string& out) {
    append_request(out, site_.url(file), up.host, kPrefetchHeader);
  });
  mark_dirty(up);
  counters_.prefetch_issued.fetch_add(1, std::memory_order_relaxed);
  prefetch_inflight_.emplace(file, server);
  obs::flight_record(obs::FlightEventType::kPrefetchIssue, server, file,
                     req_index);
}

void Distributor::local_reply(ClientConn& conn, std::uint64_t seq, int status,
                              std::string_view reason, std::string_view body,
                              std::string_view extra_headers) {
  deliver(conn, seq, format_response(status, reason, body, extra_headers),
          elapsed_us(), nullptr);
}

void Distributor::deliver(ClientConn& conn, std::uint64_t seq,
                          std::string_view bytes, std::int64_t t_done_us,
                          std::unique_ptr<obs::LiveSpan> trace) {
  mark_dirty(conn);
  if (seq != conn.next_flush) {
    DoneEntry& entry = conn.done[seq];
    entry.bytes.assign(bytes);
    entry.t_done_us = t_done_us;
    entry.trace = std::move(trace);
    return;
  }
  emit(conn, bytes, t_done_us, std::move(trace));
  while (!conn.done.empty() && conn.done.begin()->first == conn.next_flush) {
    auto node = conn.done.extract(conn.done.begin());
    DoneEntry& entry = node.mapped();
    emit(conn, entry.bytes, entry.t_done_us, std::move(entry.trace));
  }
}

void Distributor::emit(ClientConn& conn, std::string_view bytes,
                       std::int64_t t_done_us,
                       std::unique_ptr<obs::LiveSpan> trace) {
  conn.out.append(bytes);
  ++conn.next_flush;
  if (!trace) return;
  // Last hop: how long the response sat behind earlier sequence numbers.
  // completion - arrival now equals the hop sum exactly.
  trace->hop_us[static_cast<unsigned>(obs::LiveHop::kReorderHold)] =
      std::max<std::int64_t>(0, elapsed_us() - t_done_us);
  trace->completion = trace->arrival + trace->hop_sum();
  complete_span(std::move(trace));
}

void Distributor::mark_dirty(ClientConn& conn) {
  if (conn.dirty) return;
  conn.dirty = true;
  dirty_clients_.push_back(conn.key);
}

void Distributor::mark_dirty(Upstream& up) {
  if (up.dirty) return;
  up.dirty = true;
  dirty_upstreams_.push_back(up.worker);
}

void Distributor::settle_client(ClientConn& conn) {
  if (!conn.out.flush(conn.fd.get())) {
    drop_client(conn.key);  // the peer is gone
    return;
  }
  if (conn.paused && !backlogged(conn)) {
    // Drained below the depth bound: handle what is buffered and read
    // again. Settle once more after the new requests' upstream flush.
    conn.paused = false;
    handle_client_readable(conn);
    mark_dirty(conn);
    return;
  }
  // A closing connection lingers until every routed request answered and
  // flushed (otherwise closed-loop clients would hang).
  if (conn.closing && conn.done.empty() && conn.next_flush == conn.next_seq &&
      conn.out.empty()) {
    drop_client(conn.key);
    return;
  }
  const std::uint32_t want = (conn.closing || conn.paused ? 0u : EPOLLIN) |
                             (conn.out.empty() ? 0u : EPOLLOUT);
  if (want != conn.armed) {
    conn.armed = want;
    loop_.mod(conn.fd.get(), want, conn.key);
  }
}

void Distributor::drop_client(std::uint64_t key) {
  auto it = clients_.find(key);
  if (it == clients_.end()) return;
  router_.forget_connection(it->second.conn_id);
  loop_.del(it->second.fd.get());
  clients_.erase(it);
}

void Distributor::handle_upstream_readable(Upstream& up) {
  while (up.fd.valid()) {
    const ReadStatus status = up.scanner.read_from(up.fd.get());
    const std::int64_t t_resp = elapsed_us();
    while (const std::optional<ResponseView> resp = up.scanner.next()) {
      if (up.pending.empty()) {
        fail_upstream(up);  // response with no matching request
        return;
      }
      relay_response(up, *resp, t_resp);
    }
    up.scanner.consume();
    if (up.scanner.failed() || status == ReadStatus::kClosed) {
      fail_upstream(up);
      return;
    }
    if (status == ReadStatus::kDrained) return;
  }
}

void Distributor::relay_response(Upstream& up, const ResponseView& resp,
                                 std::int64_t t_resp) {
  Pending p = std::move(up.pending.front());
  up.pending.pop_front();
  if (p.prefetch) {
    // Cache-warming ack: the file is resident upstream now. Nothing
    // client-facing moves — not the router belief, not the response
    // counter, not the SLO windows.
    counters_.prefetch_responses.fetch_add(1, std::memory_order_relaxed);
    if (prefetch_inflight_.erase(p.request.file) > 0 && resp.status == 200)
      prefetch_ready_.insert(p.request.file);
    return;
  }
  router_.advance_to(t_resp);
  router_.on_response(p.request, up.worker);
  counters_.responses.fetch_add(1, std::memory_order_relaxed);
  slo_record(t_resp, t_resp - p.t_in_us, resp.status < 500);
  // Prefetch-hit attribution: a client request answered from cache on a
  // file this distributor warmed counts once, then re-arms.
  if (!prefetch_ready_.empty() && resp.header("X-Cache") == "HIT" &&
      prefetch_ready_.erase(p.request.file) > 0)
    counters_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
  auto cit = clients_.find(p.client_key);
  if (cit == clients_.end()) return;  // client left mid-flight
  std::int64_t t_done_us = 0;
  if (p.trace) {
    // Split distributor-measured wire+queue time from the worker's
    // self-reported handling time. The three segments are clamped to
    // partition [t_sent, t_resp] so the hops keep telescoping even if
    // the worker's clock reads slightly long.
    t_done_us = elapsed_us();
    obs::LiveSpan& span = *p.trace;
    const std::int64_t t_sent = p.t_sent_us > 0 ? p.t_sent_us : p.t_routed_us;
    span.hop_us[static_cast<unsigned>(obs::LiveHop::kUpstreamSend)] =
        std::max<std::int64_t>(0, t_sent - p.t_routed_us);
    const std::int64_t round_trip = std::max<std::int64_t>(0, t_resp - t_sent);
    const std::int64_t serve_us =
        std::min(header_i64(resp, obs::kServeUsHeader, 0), round_trip);
    const std::int64_t cache_us =
        std::min(header_i64(resp, obs::kCacheUsHeader, 0), serve_us);
    span.hop_us[static_cast<unsigned>(obs::LiveHop::kUpstreamWait)] =
        round_trip - serve_us;
    span.hop_us[static_cast<unsigned>(obs::LiveHop::kBackendCache)] = cache_us;
    span.hop_us[static_cast<unsigned>(obs::LiveHop::kBackendServe)] =
        serve_us - cache_us;
    span.hop_us[static_cast<unsigned>(obs::LiveHop::kRelay)] =
        std::max<std::int64_t>(0, t_done_us - t_resp);
    span.status = resp.status;
    span.cache_resident = resp.header("X-Cache") == "HIT";
  }
  // Verbatim relay: the worker's own bytes are already the response the
  // client gets (status line, Content-Length, X- headers, body).
  deliver(cit->second, p.seq, resp.raw, t_done_us, std::move(p.trace));
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
