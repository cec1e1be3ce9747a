#include "net/backend_worker.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/trace_context.h"

namespace prord::net {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BackendWorker::BackendWorker(std::uint32_t id, const SiteStore& site,
                             std::uint64_t cache_capacity)
    : id_(id), site_(site), capacity_(cache_capacity) {}

BackendWorker::~BackendWorker() { stop(); }

bool BackendWorker::start() {
  if (started_) return true;
  port_ = 0;
  listen_ = listen_loopback(port_);
  if (!listen_ || !loop_.valid()) return false;
  if (!set_nonblocking(listen_.get())) return false;
  if (!loop_.add(listen_.get(), EPOLLIN, 0)) return false;
  started_ = true;
  thread_ = std::thread([this] { run(); });
  return true;
}

void BackendWorker::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  loop_.wake();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void BackendWorker::preload(trace::FileId file, std::uint32_t bytes,
                            bool /*pinned*/) {
  if (file == trace::kInvalidFile || file >= site_.count()) return;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(file);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // refresh
      return;
    }
  }
  (void)bytes;  // the table's size is authoritative
  auto payload = std::make_shared<const std::string>(site_.make_payload(file));
  stats_.preloads.fetch_add(1, std::memory_order_relaxed);
  cache_put(file, std::move(payload));
}

bool BackendWorker::caches(trace::FileId file) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.contains(file);
}

std::shared_ptr<const std::string> BackendWorker::cache_get(
    trace::FileId file) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(file);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.payload;
}

void BackendWorker::cache_put(trace::FileId file,
                              std::shared_ptr<const std::string> payload) {
  const std::uint64_t bytes = payload->size();
  if (capacity_ > 0 && bytes > capacity_) return;  // streamed, never cached
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(file);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (capacity_ > 0 && cached_bytes_ + bytes > capacity_ && !lru_.empty()) {
    const trace::FileId victim = lru_.back();
    lru_.pop_back();
    auto vit = cache_.find(victim);
    if (vit != cache_.end()) {
      cached_bytes_ -= vit->second.payload->size();
      obs::flight_record(obs::FlightEventType::kCacheEvict, id_, victim,
                         vit->second.payload->size());
      cache_.erase(vit);
    }
  }
  lru_.push_front(file);
  cache_.emplace(file, CacheEntry{std::move(payload), lru_.begin()});
  cached_bytes_ += bytes;
}

void BackendWorker::run() {
  obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  if (flight.enabled())
    flight.name_thread_ring("backend" + std::to_string(id_));
  std::array<epoll_event, 64> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = loop_.wait(events, /*timeout_ms=*/200);
    if (n < 0) break;
    for (int i = 0; i < n; ++i) {
      const auto& ev = events[static_cast<std::size_t>(i)];
      const std::uint64_t key = ev.data.u64;
      if (key == EpollLoop::kWakeKey) continue;
      if (key == 0) {
        // Listen socket: accept everything pending.
        while (true) {
          const int cfd =
              ::accept4(listen_.get(), nullptr, nullptr, SOCK_CLOEXEC);
          if (cfd < 0) break;
          set_nonblocking(cfd);
          set_nodelay(cfd);
          const std::uint64_t ckey = next_conn_key_++;
          Conn conn;
          conn.fd = Fd(cfd);
          conn.key = ckey;
          auto [it, ok] = conns_.emplace(ckey, std::move(conn));
          if (ok && !loop_.add(cfd, EPOLLIN, ckey)) conns_.erase(it);
        }
        continue;
      }
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      bool dead = false;
      if (ev.events & (EPOLLHUP | EPOLLERR)) dead = true;
      if (!dead && (ev.events & EPOLLIN)) {
        handle_readable(conn);
        dead = conn.parser.failed() && conn.out_off >= conn.out.size();
      }
      if (!dead && (ev.events & (EPOLLIN | EPOLLOUT))) dead = !flush(conn);
      if (!dead && conn.closing && conn.out_off >= conn.out.size())
        dead = true;
      if (dead) {
        loop_.del(conn.fd.get());
        conns_.erase(it);
      }
    }
  }
}

void BackendWorker::handle_readable(Conn& conn) {
  char buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      if (!conn.parser.consume(std::string_view(buf,
                                                static_cast<std::size_t>(n))))
        conn.closing = true;
      while (auto req = conn.parser.pop()) serve_request(conn, *req);
      continue;
    }
    if (n == 0) {  // orderly shutdown from the peer
      conn.closing = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn.closing = true;
    return;
  }
}

void BackendWorker::serve_request(Conn& conn, const HttpRequest& req) {
  // Cache-warming request class (docs/PREDICTOR.md): load the payload
  // into the LRU but send only a tiny ack back — the point is residency,
  // not bytes on the loopback — and keep every client-facing counter
  // untouched.
  if (req.header("X-Prord-Prefetch") != nullptr) {
    stats_.prefetch_requests.fetch_add(1, std::memory_order_relaxed);
    std::string extra = "X-Backend: " + std::to_string(id_) + "\r\n";
    const trace::FileId file = site_.lookup(req.target);
    if (file == trace::kInvalidFile || site_.is_dynamic(file)) {
      conn.out += format_response(204, "No Content", "", extra);
      if (!req.keep_alive) conn.closing = true;
      return;
    }
    if (cache_get(file)) {
      stats_.prefetch_resident.fetch_add(1, std::memory_order_relaxed);
      extra += "X-Cache: HIT\r\n";
    } else {
      cache_put(file, std::make_shared<const std::string>(
                          site_.make_payload(file)));
      stats_.prefetch_loads.fetch_add(1, std::memory_order_relaxed);
      extra += "X-Cache: MISS\r\n";
    }
    conn.out += format_response(200, "OK", "warmed\n", extra);
    if (!req.keep_alive) conn.closing = true;
    return;
  }

  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  std::string extra = "X-Backend: " + std::to_string(id_) + "\r\n";

  // Traced request (docs/OBSERVABILITY.md "Live tracing"): measure the
  // cache section and the total handling time, and echo both back —
  // X-Prord-Serve-Us / X-Prord-Cache-Us let the distributor split its
  // measured round trip into queue-wait vs back-end work. The trace
  // header itself is echoed with the hop sequence bumped (0 = distributor
  // origin, 1 = this worker). Untraced requests pay one header lookup.
  const std::string* trace_hdr = req.header(obs::kTraceHeader);
  const bool traced = trace_hdr != nullptr;
  const std::int64_t t_start = traced ? steady_us() : 0;
  std::int64_t cache_us = 0;

  const auto finish = [&](int status, std::string_view reason,
                          std::string_view body) {
    if (traced) {
      auto context = obs::parse_trace_header(*trace_hdr);
      if (context) {
        context->hop += 1;
        extra += "X-Prord-Trace: ";
        extra += obs::format_trace_header(*context);
        extra += "\r\n";
      }
      const std::int64_t serve_us =
          std::max<std::int64_t>(steady_us() - t_start, cache_us);
      extra += "X-Prord-Serve-Us: " + std::to_string(serve_us) + "\r\n";
      extra += "X-Prord-Cache-Us: " + std::to_string(cache_us) + "\r\n";
    }
    conn.out += format_response(status, reason, body, extra);
    if (!req.keep_alive) conn.closing = true;
  };

  const trace::FileId file = site_.lookup(req.target);
  if (file == trace::kInvalidFile) {
    stats_.not_found.fetch_add(1, std::memory_order_relaxed);
    finish(404, "Not Found", "missing\n");
    return;
  }

  if (site_.is_dynamic(file)) {
    // CPU-generated content: never cached, body rebuilt per request.
    stats_.dynamic_served.fetch_add(1, std::memory_order_relaxed);
    const std::string body = site_.make_payload(file);
    stats_.bytes_out.fetch_add(body.size(), std::memory_order_relaxed);
    extra += "X-Cache: DYN\r\n";
    finish(200, "OK", body);
    return;
  }

  const std::int64_t t_cache = traced ? steady_us() : 0;
  std::shared_ptr<const std::string> payload = cache_get(file);
  if (payload) {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    extra += "X-Cache: HIT\r\n";
  } else {
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    payload =
        std::make_shared<const std::string>(site_.make_payload(file));
    cache_put(file, payload);
    extra += "X-Cache: MISS\r\n";
  }
  if (traced) cache_us = steady_us() - t_cache;
  stats_.bytes_out.fetch_add(payload->size(), std::memory_order_relaxed);
  finish(200, "OK", *payload);
}

bool BackendWorker::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Kernel buffer full: watch for writability until drained.
      if (!conn.want_write) {
        conn.want_write = true;
        loop_.mod(conn.fd.get(), EPOLLIN | EPOLLOUT, conn.key);
      }
      return true;
    }
    if (errno == EINTR) continue;
    return false;
  }
  if (conn.out_off == conn.out.size() && conn.out_off > 0) {
    conn.out.clear();
    conn.out_off = 0;
  }
  if (conn.want_write) {
    conn.want_write = false;
    loop_.mod(conn.fd.get(), EPOLLIN, conn.key);
  }
  return true;
}

}  // namespace prord::net
