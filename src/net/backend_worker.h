// BackendWorker: one real serving node of the live loopback cluster.
//
// Each worker runs its own epoll loop on its own thread, listening on an
// ephemeral loopback port. The distributor holds one persistent upstream
// connection per worker and forwards client requests over it; the worker
// answers from an in-memory byte-capacity LRU of materialized payloads
// (there is no filesystem — SiteStore::make_payload is the "disk", and it
// fills a body with block copies, so a miss costs the payload's buffer and
// shared_ptr control block and a memcpy-speed write).
//
// The LRU is one slot per FileId of the site table (fixed while the
// cluster runs), each holding the payload and intrusive prev/next indices
// of the recency list: an insert, a hit or an eviction relinks indices and
// allocates or frees no node. Byte accounting, eviction order and the rule
// that a payload larger than the capacity is never cached are those of a
// plain list + map LRU.
//
// Proactive placement (PRORD prefetch directives and Algorithm 3 replica
// pushes) arrives via preload(), called from the distributor thread when
// the belief model's BackendServer fires its proactive observer — the
// worker cache and the belief cache stay in step. The cache is guarded by
// a mutex: serving and preloading contend only on lookup/insert, and
// payload materialization happens outside the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.h"
#include "net/site_store.h"
#include "net/socket.h"

namespace prord::net {

struct WorkerStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> dynamic_served{0};
  std::atomic<std::uint64_t> preloads{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> not_found{0};
  // X-Prord-Prefetch requests (docs/PREDICTOR.md): accounted separately so
  // cache-warming traffic never dilutes the client hit-rate above.
  std::atomic<std::uint64_t> prefetch_requests{0};
  std::atomic<std::uint64_t> prefetch_resident{0};  ///< already cached
  std::atomic<std::uint64_t> prefetch_loads{0};     ///< read from "disk"
};

class BackendWorker {
 public:
  /// `site` is borrowed and must outlive the worker. `cache_capacity` is
  /// the byte budget for materialized payloads (0 = cache everything).
  BackendWorker(std::uint32_t id, const SiteStore& site,
                std::uint64_t cache_capacity);
  ~BackendWorker();
  BackendWorker(const BackendWorker&) = delete;
  BackendWorker& operator=(const BackendWorker&) = delete;

  /// Binds the listen socket and starts the serving thread. Returns false
  /// when the socket setup failed.
  bool start();
  /// Stops the loop and joins the thread (idempotent).
  void stop();

  std::uint32_t id() const noexcept { return id_; }
  /// Valid after start().
  std::uint16_t port() const noexcept { return port_; }
  const WorkerStats& stats() const noexcept { return stats_; }

  /// Thread-safe proactive load: materializes the payload and installs it
  /// in the cache (refreshing LRU position if already resident). `pinned`
  /// is advisory here — the worker cache is a single LRU; the two-region
  /// accounting lives in the distributor's belief model.
  void preload(trace::FileId file, std::uint32_t bytes, bool pinned);

  /// True when `file`'s payload is resident right now (parity/debugging).
  bool caches(trace::FileId file) const;

 private:
  struct Conn {
    Fd fd;
    std::uint64_t key = 0;  ///< epoll registration key
    RequestScanner scanner;
    OutQueue out;             ///< replies, flushed with vectored sendmsg
    bool closing = false;     ///< flush out, then close
    bool want_write = false;  ///< EPOLLOUT currently armed
  };

  void run();
  void handle_readable(Conn& conn);
  void serve_request(Conn& conn, const RequestView& req);
  /// Queues one reply: the head written in place, then the body (by
  /// reference when `shared` holds it). Traced replies append their
  /// X-Prord-* echo lines from `traced_extra`.
  void reply(Conn& conn, int status, std::string_view reason,
             std::string_view cache, std::string_view body,
             std::shared_ptr<const std::string> shared = nullptr,
             std::string_view traced_extra = {});
  std::shared_ptr<const std::string> cache_get(trace::FileId file);
  void cache_put(trace::FileId file,
                 std::shared_ptr<const std::string> payload);

  const std::uint32_t id_;
  const std::string backend_line_;  ///< "X-Backend: <id>\r\n"
  const SiteStore& site_;
  const std::uint64_t capacity_;

  Fd listen_;
  std::uint16_t port_ = 0;
  EpollLoop loop_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_key_ = 1;

  // Byte-capacity LRU over materialized payloads, indexed by FileId.
  // head_ is the most recent slot; prev points toward it, next away.
  struct Slot {
    std::shared_ptr<const std::string> payload;  ///< null = not resident
    trace::FileId prev = trace::kInvalidFile;
    trace::FileId next = trace::kInvalidFile;
  };
  void lru_unlink(trace::FileId file);
  void lru_push_front(trace::FileId file);
  void lru_refresh(trace::FileId file);  ///< resident: move to the front

  mutable std::mutex cache_mu_;
  std::vector<Slot> slots_;  ///< one per site file, sized at construction
  trace::FileId head_ = trace::kInvalidFile;
  trace::FileId tail_ = trace::kInvalidFile;
  std::uint64_t cached_bytes_ = 0;

  WorkerStats stats_;
};

}  // namespace prord::net
