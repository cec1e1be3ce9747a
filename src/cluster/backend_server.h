// Back-end server model.
//
// One server = CPU FIFO + disk FIFO + two-region memory cache + power
// state. The request path:
//
//     CPU (parse/handle + response copy)
//      └── cache hit  -> respond after NIC egress delay
//      └── cache miss -> disk FIFO (fixed + per-KB) -> insert demand cache
//                        -> respond after NIC egress delay
//
// Proactive work shares the same physical resources: a prefetch occupies
// the disk (so over-eager prefetching hurts, which is why Algorithm 2's
// confidence threshold exists) and replicated content lands in the pinned
// cache region.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cache.h"
#include "cluster/params.h"
#include "cluster/resources.h"
#include "simcore/simulator.h"
#include "util/inplace_function.h"

namespace prord::cluster {

enum class PowerState : std::uint8_t { kOn, kHibernate, kOff };

/// Completion callback of a serve pipeline. `ok` is false when the
/// request died with the server (crash before the response finished); the
/// reported time then includes the client's failure timeout. Callables
/// taking only the completion time still convert (success-oriented
/// callers that predate fault injection).
///
/// Move-only, with a small inline buffer: the player's pooled completion
/// closure captures {player, record} (16 bytes), and keeping the buffer
/// tight lets the serve pipeline's composed respond/finish closures stay
/// inside sim::EventFn's inline capacity instead of spilling to the heap.
class ResponseFn {
 public:
  static constexpr std::size_t kInlineBytes = 24;

  ResponseFn() = default;
  ResponseFn(std::nullptr_t) {}  // NOLINT: mirrors std::function
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, ResponseFn> &&
             std::invocable<F&, sim::SimTime, bool>)
  ResponseFn(F fn) : fn_(std::move(fn)) {}  // NOLINT: callable adapter
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, ResponseFn> &&
             !std::invocable<F&, sim::SimTime, bool> &&
             std::invocable<F&, sim::SimTime>)
  ResponseFn(F fn)  // NOLINT: callable adapter
      : fn_([g = std::move(fn)](sim::SimTime at, bool) mutable { g(at); }) {}

  explicit operator bool() const noexcept { return static_cast<bool>(fn_); }
  void operator()(sim::SimTime at, bool ok) { fn_(at, ok); }

 private:
  util::InplaceFunction<void(sim::SimTime, bool), kInlineBytes> fn_;
};

struct BackendStats {
  std::uint64_t requests_served = 0;
  std::uint64_t dynamic_served = 0;
  std::uint64_t bytes_served = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetches_skipped = 0;  ///< dropped: disk backlog too deep
  std::uint64_t replications_received = 0;
  std::uint64_t cooperative_pulls = 0;  ///< misses served from a peer's memory
};

class BackendServer {
 public:
  using ResponseFn = cluster::ResponseFn;

  BackendServer(sim::Simulator& sim, ServerId id, const ClusterParams& params,
                std::uint64_t demand_capacity, std::uint64_t pinned_capacity);

  ServerId id() const noexcept { return id_; }

  /// Serves one request: runs the CPU/cache/disk pipeline and calls `done`
  /// at response completion (egress included). `extra_latency` is added
  /// before service (e.g. TCP-handoff or forwarding delay charged by the
  /// front-end). Dynamic requests are generated on the CPU (script
  /// execution cost) and bypass the cache entirely.
  void serve(trace::FileId file, std::uint32_t bytes,
             sim::SimTime extra_latency, ResponseFn done,
             bool dynamic = false);

  /// Serve with cooperative caching (PRESS [32]): on a miss, pull the file
  /// from `source` over the interconnect (occupying the source's NIC)
  /// instead of reading disk. Falls back to the local disk when source is
  /// null, unavailable, or no longer caches the file by pull time.
  void serve_cooperative(trace::FileId file, std::uint32_t bytes,
                         sim::SimTime extra_latency, BackendServer* source,
                         ResponseFn done);

  /// Proactively loads a file. Speculative content (predicted pages,
  /// replicas) goes to the pinned region; content that is about to be
  /// demanded (a requested page's bundle) goes to the demand region so it
  /// does not squeeze the speculative budget. If the file is already
  /// resident this is a no-op; otherwise it costs a disk read.
  void prefetch(trace::FileId file, std::uint32_t bytes, bool pinned = true);

  /// Installs a replica that has finished its interconnect transfer
  /// (Cluster::push_replica charges the link time first).
  void install_replica(trace::FileId file, std::uint32_t bytes,
                       bool pinned = true);

  /// Charges relay CPU for a response forwarded through this server
  /// (back-end forwarding mode).
  void relay(std::uint32_t bytes);

  bool caches(trace::FileId file) const { return cache_.contains(file); }

  /// True if the file is resident or a disk read for it is in flight
  /// (i.e. a request arriving now would be served from memory or join the
  /// pending fetch rather than start a new one).
  bool caches_or_fetching(trace::FileId file) const {
    return cache_.contains(file) || inflight_reads_.contains(file);
  }

  /// Open-request count as seen by routing policies: requests this
  /// decider started plus the merged estimate of load other front-end
  /// shards have in flight on the same backend (zero outside sharded
  /// runs, so sim behaviour is unchanged).
  std::uint32_t load() const noexcept { return active_ + external_load_; }

  /// Only the requests *this* decider has in flight. This is what a shard
  /// publishes over load-gossip — publishing load() would echo back the
  /// other shards' contributions and double-count them on every exchange.
  std::uint32_t local_load() const noexcept { return active_; }

  /// Merged in-flight estimate from peer shards (see src/scale/). Each
  /// gossip merge recomputes this from scratch, so stale values decay to
  /// zero rather than accumulate.
  void set_external_load(std::uint32_t n) noexcept { external_load_ = n; }
  std::uint32_t external_load() const noexcept { return external_load_; }

  // --- Live-cluster belief mirror (src/net/). The live distributor keeps
  // one BackendServer per real worker thread as its *belief state*: the
  // policies read load()/caches()/available() here while the actual bytes
  // move over sockets. live_begin/live_end bracket a real in-flight
  // request — mirroring the open-request count, the demand cache, and the
  // served counters — without running the simulated service pipeline,
  // whose timing the real worker replaces.
  void live_begin(trace::FileId file, std::uint32_t bytes, bool dynamic);
  void live_end() noexcept {
    if (active_ > 0) --active_;
  }

  /// Observer for proactive placements (prefetch directives and replica
  /// installs). The live distributor mirrors these into the real worker's
  /// in-memory cache so belief and worker stay in step. Called at
  /// directive time with (file, bytes, pinned).
  void set_proactive_observer(
      std::function<void(trace::FileId, std::uint32_t, bool)> fn) {
    proactive_observer_ = std::move(fn);
  }

  // --- Power accounting. The model is present because Table 1 specifies
  // it; PRORD itself never powers nodes down, but the PARD-style example
  // does. set_power_state is the *planned* path: the front-end's view
  // updates instantly and in-flight work completes.
  void set_power_state(PowerState s);
  PowerState power_state() const noexcept { return power_; }
  /// Energy consumed so far in "full-power seconds".
  double energy(sim::SimTime now) const;

  // --- Failure semantics (abrupt path; see docs/FAULTS.md). A crash is
  // invisible to the front-end until a HealthMonitor heartbeat flips
  // marked_down: available() reports the front-end's *belief*, alive()
  // the ground truth.
  /// Abrupt process death: cache and queued work are lost, in-flight
  /// requests report failure after the client's timeout, the incarnation
  /// counter invalidates every closure the old process scheduled.
  void crash();
  /// Warm restart after a crash: rejoins with a cold cache.
  void restart();
  /// Degraded mode: CPU/disk service times multiply by `factor` (>= 1);
  /// 1.0 restores full speed.
  void set_slowdown(double factor);
  double slowdown() const noexcept { return slow_factor_; }

  bool alive() const noexcept { return alive_; }
  /// Bumped on every crash; closures capture it to detect that the state
  /// they were scheduled against no longer exists.
  std::uint64_t incarnation() const noexcept { return incarnation_; }
  /// Ground-truth time of the last crash (valid while !alive()).
  sim::SimTime down_since() const noexcept { return down_since_; }
  /// Failure-detector belief (set by faults::HealthMonitor).
  void set_marked_down(bool down) noexcept { marked_down_ = down; }
  bool marked_down() const noexcept { return marked_down_; }

  /// Front-end view: powered on and not believed dead. Between a crash
  /// and its heartbeat detection this stays true — requests routed in
  /// that window fail into the player's retry machinery.
  bool available() const noexcept {
    return power_ == PowerState::kOn && !marked_down_;
  }

  const MemoryCache& cache() const noexcept { return cache_; }
  MemoryCache& cache() noexcept { return cache_; }
  const BackendStats& stats() const noexcept { return stats_; }
  const FifoResource& cpu() const noexcept { return cpu_; }
  /// Mutable CPU handle: background work (e.g. the online mining thread)
  /// submits its service time here to steal real serving capacity.
  FifoResource& cpu() noexcept { return cpu_; }
  const FifoResource& disk() const noexcept { return disk_; }
  /// 100 Mbps switched-Ethernet NIC: inbound forwards/replicas queue here.
  FifoResource& nic() noexcept { return nic_; }
  const FifoResource& nic() const noexcept { return nic_; }

  /// Zeroes served/read counters and utilization accounting; cache
  /// contents stay warm (measurement-phase start).
  void reset_stats() noexcept {
    stats_ = BackendStats{};
    cache_.reset_stats();
    cpu_.reset_accounting();
    disk_.reset_accounting();
    nic_.reset_accounting();
  }

 private:
  sim::SimTime cpu_service(std::uint32_t bytes) const;
  sim::SimTime egress_delay(std::uint32_t bytes) const;
  /// Applies the slowdown factor to a CPU/disk service demand.
  sim::SimTime scaled(sim::SimTime t) const noexcept {
    return slow_factor_ == 1.0
               ? t
               : static_cast<sim::SimTime>(static_cast<double>(t) *
                                           slow_factor_);
  }
  /// Schedules `done(now + failure_timeout, false)` — the fate of a
  /// request handed to a dead server.
  void fail_request(ResponseFn done);

  /// Reads `file` from disk and installs it in the chosen cache region,
  /// then runs all waiters. Concurrent requests for the same file share one
  /// disk read (a demand miss joins an in-flight prefetch and vice versa).
  void read_from_disk(trace::FileId file, std::uint32_t bytes, bool pinned,
                      sim::EventFn done);

  sim::Simulator& sim_;
  ServerId id_;
  const ClusterParams& params_;
  MemoryCache cache_;
  FifoResource cpu_;
  FifoResource disk_;
  FifoResource nic_;
  std::uint32_t active_ = 0;
  std::uint32_t external_load_ = 0;
  BackendStats stats_;
  std::function<void(trace::FileId, std::uint32_t, bool)> proactive_observer_;
  /// file -> completion callbacks of reads sharing the in-flight fetch.
  std::unordered_map<trace::FileId, std::vector<sim::EventFn>> inflight_reads_;

  PowerState power_ = PowerState::kOn;
  sim::SimTime power_since_ = 0;
  double energy_ = 0.0;  // accumulated full-power-seconds

  bool alive_ = true;
  std::uint64_t incarnation_ = 0;
  bool marked_down_ = false;     // failure-detector belief, lags alive_
  sim::SimTime down_since_ = 0;  // ground truth, set at crash()
  double slow_factor_ = 1.0;     // >= 1: multiplies CPU/disk service
};

}  // namespace prord::cluster
