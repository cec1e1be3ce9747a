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

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BackendWorker::BackendWorker(std::uint32_t id, const SiteStore& site,
                             std::uint64_t cache_capacity)
    : id_(id),
      backend_line_("X-Backend: " + std::to_string(id) + "\r\n"),
      site_(site),
      capacity_(cache_capacity),
      slots_(site.count()) {}

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
  if (file == trace::kInvalidFile || file >= slots_.size()) return;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (slots_[file].payload) {
      lru_refresh(file);
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
  return file < slots_.size() && slots_[file].payload != nullptr;
}

void BackendWorker::lru_unlink(trace::FileId file) {
  Slot& slot = slots_[file];
  if (slot.prev != trace::kInvalidFile)
    slots_[slot.prev].next = slot.next;
  else
    head_ = slot.next;
  if (slot.next != trace::kInvalidFile)
    slots_[slot.next].prev = slot.prev;
  else
    tail_ = slot.prev;
  slot.prev = slot.next = trace::kInvalidFile;
}

void BackendWorker::lru_push_front(trace::FileId file) {
  Slot& slot = slots_[file];
  slot.prev = trace::kInvalidFile;
  slot.next = head_;
  if (head_ != trace::kInvalidFile)
    slots_[head_].prev = file;
  else
    tail_ = file;
  head_ = file;
}

void BackendWorker::lru_refresh(trace::FileId file) {
  lru_unlink(file);
  lru_push_front(file);
}

std::shared_ptr<const std::string> BackendWorker::cache_get(
    trace::FileId file) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (file >= slots_.size() || !slots_[file].payload) return nullptr;
  lru_refresh(file);
  return slots_[file].payload;
}

void BackendWorker::cache_put(trace::FileId file,
                              std::shared_ptr<const std::string> payload) {
  const std::uint64_t bytes = payload->size();
  if (capacity_ > 0 && bytes > capacity_) return;  // streamed, never cached
  if (file >= slots_.size()) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (slots_[file].payload) {
    lru_refresh(file);
    return;
  }
  while (capacity_ > 0 && cached_bytes_ + bytes > capacity_ &&
         tail_ != trace::kInvalidFile) {
    const trace::FileId victim = tail_;
    Slot& slot = slots_[victim];
    lru_unlink(victim);
    cached_bytes_ -= slot.payload->size();
    obs::flight_record(obs::FlightEventType::kCacheEvict, id_, victim,
                       slot.payload->size());
    slot.payload.reset();
  }
  slots_[file].payload = std::move(payload);
  lru_push_front(file);
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
        dead = conn.scanner.failed() && conn.out.empty();
      }
      if (!dead && (ev.events & (EPOLLIN | EPOLLOUT)))
        dead = !flush_watching(loop_, conn.fd.get(), conn.key, conn.out,
                               conn.want_write);
      if (!dead && conn.closing && conn.out.empty()) dead = true;
      if (dead) {
        loop_.del(conn.fd.get());
        conns_.erase(it);
      }
    }
  }
}

void BackendWorker::handle_readable(Conn& conn) {
  // Every reply of the batch queues on conn.out; run() flushes it once.
  while (!conn.closing) {
    const ReadStatus status = conn.scanner.read_from(conn.fd.get());
    while (auto req = conn.scanner.next()) serve_request(conn, *req);
    conn.scanner.consume();
    if (conn.scanner.failed() || status == ReadStatus::kClosed)
      conn.closing = true;
    // Level-triggered epoll: a short read drained the socket, and any
    // later bytes re-report it.
    if (status != ReadStatus::kMore) return;
  }
}

void BackendWorker::reply(Conn& conn, int status, std::string_view reason,
                          std::string_view cache, std::string_view body,
                          std::shared_ptr<const std::string> shared,
                          std::string_view traced_extra) {
  conn.out.write([&](std::string& out) {
    append_response_start(out, status, reason, body.size());
    out.append(backend_line_);
    if (!cache.empty()) out.append("X-Cache: ").append(cache).append("\r\n");
    out.append(traced_extra).append("\r\n");
    if (!shared) out.append(body);
  });
  if (shared) conn.out.append_shared(std::move(shared));
}

void BackendWorker::serve_request(Conn& conn, const RequestView& req) {
  if (!req.keep_alive) conn.closing = true;
  // Cache-warming request class (docs/PREDICTOR.md): load the payload
  // into the LRU but send only a tiny ack back — the point is residency,
  // not bytes on the loopback — and keep every client-facing counter
  // untouched.
  if (req.header("X-Prord-Prefetch")) {
    stats_.prefetch_requests.fetch_add(1, std::memory_order_relaxed);
    const trace::FileId file = site_.lookup(req.target);
    if (file == trace::kInvalidFile || site_.is_dynamic(file)) {
      reply(conn, 204, "No Content", {}, {});
      return;
    }
    std::string_view cache = "HIT";
    if (cache_get(file)) {
      stats_.prefetch_resident.fetch_add(1, std::memory_order_relaxed);
    } else {
      cache_put(file, std::make_shared<const std::string>(
                          site_.make_payload(file)));
      stats_.prefetch_loads.fetch_add(1, std::memory_order_relaxed);
      cache = "MISS";
    }
    reply(conn, 200, "OK", cache, "warmed\n");
    return;
  }

  stats_.requests.fetch_add(1, std::memory_order_relaxed);

  // Traced request (docs/OBSERVABILITY.md "Live tracing"): measure the
  // cache section and the total handling time, and echo both back —
  // X-Prord-Serve-Us / X-Prord-Cache-Us let the distributor split its
  // measured round trip into queue-wait vs back-end work. The trace
  // header itself is echoed with the hop sequence bumped (0 = distributor
  // origin, 1 = this worker). Untraced requests pay one header lookup.
  const std::optional<std::string_view> trace_hdr =
      req.header(obs::kTraceHeader);
  const bool traced = trace_hdr.has_value();
  const std::int64_t t_start = traced ? steady_us() : 0;
  std::int64_t cache_us = 0;

  const auto finish = [&](int status, std::string_view reason,
                          std::string_view cache, std::string_view body,
                          std::shared_ptr<const std::string> shared) {
    if (!traced) {
      reply(conn, status, reason, cache, body, std::move(shared));
      return;
    }
    std::string extra;
    if (auto context = obs::parse_trace_header(*trace_hdr)) {
      context->hop += 1;
      extra += "X-Prord-Trace: ";
      extra += obs::format_trace_header(*context);
      extra += "\r\n";
    }
    const std::int64_t serve_us =
        std::max<std::int64_t>(steady_us() - t_start, cache_us);
    extra += "X-Prord-Serve-Us: " + std::to_string(serve_us) + "\r\n";
    extra += "X-Prord-Cache-Us: " + std::to_string(cache_us) + "\r\n";
    reply(conn, status, reason, cache, body, std::move(shared), extra);
  };

  const trace::FileId file = site_.lookup(req.target);
  if (file == trace::kInvalidFile) {
    stats_.not_found.fetch_add(1, std::memory_order_relaxed);
    finish(404, "Not Found", {}, "missing\n", nullptr);
    return;
  }

  if (site_.is_dynamic(file)) {
    // CPU-generated content: never cached, body rebuilt per request.
    stats_.dynamic_served.fetch_add(1, std::memory_order_relaxed);
    const std::string body = site_.make_payload(file);
    stats_.bytes_out.fetch_add(body.size(), std::memory_order_relaxed);
    finish(200, "OK", "DYN", body, nullptr);
    return;
  }

  const std::int64_t t_cache = traced ? steady_us() : 0;
  std::shared_ptr<const std::string> payload = cache_get(file);
  std::string_view cache = "HIT";
  if (payload) {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    payload =
        std::make_shared<const std::string>(site_.make_payload(file));
    cache_put(file, payload);
    cache = "MISS";
  }
  if (traced) cache_us = steady_us() - t_cache;
  stats_.bytes_out.fetch_add(payload->size(), std::memory_order_relaxed);
  const std::string_view body = *payload;
  finish(200, "OK", cache, body, std::move(payload));
}

}  // namespace prord::net
