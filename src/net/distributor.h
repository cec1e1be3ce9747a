// Distributor: the live cluster's front end (paper Fig. 1/Fig. 6).
//
// Single epoll thread per instance; the sharded front end (src/scale/)
// runs N instances side by side, each a full shard with its own
// LiveRouter belief, bound to one port via SO_REUSEPORT or fed through
// the accept-fd handoff fallback (see DistributorShardOptions).
//
// Clients connect over persistent HTTP/1.1; each
// parsed request is routed through the shared core::RoutingCore (via
// LiveRouter's belief model — the same policy objects and decision-commit
// path the simulator runs) and forwarded to the chosen BackendWorker over
// that worker's one persistent upstream connection. Responses relay back
// on the client connection in request order (per-connection reordering
// buffer, since consecutive requests of one client may hit different
// workers).
//
// The distributor also serves GET /metrics itself (Prometheus text
// snapshot assembled by a caller-provided closure, wired by
// scale::run_live_sharded to the obs::MetricRegistry exporter) and GET
// /slo (the SloMonitor's JSON evaluation).
//
// Observability (docs/OBSERVABILITY.md "Live tracing"): when a trace
// sample rate is configured, a deterministic subset of forwarded requests
// — chosen by index hash, so the sampled *set* is identical run to run —
// carries an X-Prord-Trace header to the back-end and is stamped at every
// segment boundary. The stamps telescope: parse + route + upstream_send +
// upstream_wait + backend_cache + backend_serve + relay + reorder_hold
// equals the end-to-end wall latency exactly by construction. Every
// settled request (traced or not) additionally feeds the SLO monitor, and
// route/fault events tap the process-wide flight recorder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/backend_worker.h"
#include "net/http.h"
#include "net/live_router.h"
#include "net/site_store.h"
#include "net/socket.h"
#include "obs/slo_monitor.h"
#include "obs/trace_context.h"
#include "obs/tracer.h"
#include "predict/predictor_iface.h"

namespace prord::net {

struct DistributorCounters {
  std::atomic<std::uint64_t> requests{0};     ///< client requests parsed
  std::atomic<std::uint64_t> responses{0};    ///< responses relayed back
  std::atomic<std::uint64_t> failures{0};     ///< 502/503 answered locally
  std::atomic<std::uint64_t> not_found{0};    ///< URL outside the site
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> metrics_scrapes{0};
  std::atomic<std::uint64_t> trace_spans{0};    ///< live spans completed
  std::atomic<std::uint64_t> trace_dropped{0};  ///< spans past the cap
  std::atomic<std::uint64_t> slo_violations{0};
  std::atomic<std::uint64_t> flight_dumps{0};

  // Accept-path accounting (the storm outcomes used to be silent).
  std::atomic<std::uint64_t> accepts{0};        ///< connections accepted here
  std::atomic<std::uint64_t> accept_bursts{0};  ///< drains that hit the cap
  std::atomic<std::uint64_t> accept_eagain{0};  ///< drains ended by EAGAIN
  std::atomic<std::uint64_t> accept_emfile{0};  ///< EMFILE/ENFILE rejections
  std::atomic<std::uint64_t> handoff_out{0};    ///< accepted fds sent to peers
  std::atomic<std::uint64_t> adopted{0};        ///< fds received via handoff

  // Live proactive prefetch (docs/PREDICTOR.md). Prefetch traffic is
  // distributor-generated: it never touches the client counters above,
  // the router belief, or the SLO windows.
  std::atomic<std::uint64_t> prefetch_issued{0};     ///< GETs sent upstream
  std::atomic<std::uint64_t> prefetch_responses{0};  ///< acks from workers
  std::atomic<std::uint64_t> prefetch_hits{0};   ///< client HITs on warmed
  std::atomic<std::uint64_t> prefetch_wasted{0}; ///< issued-hits at stop()
  /// Always 0: predictor feeds apply in place and never drop. Kept
  /// because the benchmark harness (perfbench/live.cpp) reads it.
  std::atomic<std::uint64_t> predict_drops{0};
};

/// Observability wiring, fixed before start().
struct DistributorObsOptions {
  /// Fraction of forwarded requests that carry a trace (0 disables).
  double trace_sample_rate = 0.0;
  /// Seed mixed into the trace-id derivation (ids stay run-stable).
  std::uint64_t trace_seed = 0x9E3779B97F4A7C15ULL;
  /// Completed spans kept in memory; the rest count as trace_dropped.
  std::size_t max_spans = 262144;
  obs::SloOptions slo;
  /// Flight-recorder dump destination; empty disables disk dumps (the
  /// recorder itself is armed by whoever calls FlightRecorder::enable()).
  std::string flight_dump_path;
  /// Minimum spacing between automatic (SLO/fault) dumps. SIGUSR2 dumps
  /// bypass the cooldown.
  std::int64_t flight_dump_cooldown_us = 1'000'000;
};

class Distributor;

/// Shard wiring, set by the front end (scale::ShardedFrontend), which
/// also binds every client listen socket.
struct DistributorShardOptions {
  std::uint32_t shard_id = 0;
  std::uint32_t num_shards = 1;
  /// Pre-bound listen socket for this shard (an SO_REUSEPORT group
  /// member, or the lone listener). Invalid => this shard accepts nothing
  /// directly and receives connections via adopt_client().
  Fd listen;
  /// Accept-fd handoff fallback (no SO_REUSEPORT): the accepting shard
  /// round-robins new connections across these peers; an entry equal to
  /// `this` keeps the connection local. Empty => keep everything local.
  std::vector<Distributor*> handoff_peers;
  /// Event-loop hook, called with elapsed_us() once per loop iteration on
  /// the shard thread. The gossip tick (scale::ShardRoutingCore) lives
  /// here so belief merging never needs a cross-shard lock.
  std::function<void(std::int64_t)> tick;
};

class Distributor {
 public:
  /// `router`, `site`, and the workers are borrowed and must outlive the
  /// distributor.
  Distributor(LiveRouter& router, const SiteStore& site,
              std::vector<BackendWorker*> workers);
  ~Distributor();
  Distributor(const Distributor&) = delete;
  Distributor& operator=(const Distributor&) = delete;

  /// Must precede start(); ignored afterwards.
  void configure_obs(DistributorObsOptions options);

  /// Places this distributor in a shard group. Must precede start().
  void configure_shard(DistributorShardOptions options);

  /// Thread-safe: transfers ownership of an accepted client fd to this
  /// shard's event loop (round-robin handoff fallback when SO_REUSEPORT
  /// is unavailable). The fd is registered on the next loop iteration.
  void adopt_client(int fd);

  /// Enables live proactive prefetch: the distributor registers a feed
  /// link with `service` (borrowed, must outlive the distributor), feeds
  /// every routed client request, and issues X-Prord-Prefetch GETs for
  /// associations whose confidence clears `min_confidence` (at most
  /// `fanout` per routed main page). Must precede start(). Each feed
  /// applies in place on the event-loop thread (docs/PREDICTOR.md).
  void set_predictor(predict::IPredictor* service, double min_confidence,
                     std::size_t fanout);

  /// Connects the upstream sockets (the workers must already be
  /// listening), registers the shard's listen socket, starts the policy
  /// and the event-loop thread. False on any setup failure.
  bool start();
  void stop();

  std::uint32_t shard_id() const noexcept { return shard_.shard_id; }
  const DistributorCounters& counters() const noexcept { return counters_; }

  /// Completed live spans, oldest first. Distributor-thread state: safe
  /// from the metrics provider (which runs on that thread) and after
  /// stop() has joined.
  const std::vector<obs::LiveSpan>& spans() const noexcept { return spans_; }
  const obs::SloMonitor& slo() const noexcept { return slo_; }
  const DistributorObsOptions& obs_options() const noexcept { return obs_; }
  /// Current /slo body (same thread-safety contract as spans()).
  std::string slo_json() const { return slo_.to_json(elapsed_us()); }

  /// Body served for GET /metrics. Runs on the distributor thread, so it
  /// may safely read the LiveRouter. Unset => minimal built-in snapshot.
  void set_metrics_provider(std::function<std::string()> fn) {
    metrics_fn_ = std::move(fn);
  }

  /// Body served for GET /slo. Runs on the distributor thread. Unset =>
  /// this shard's own SloMonitor JSON; the sharded front end installs an
  /// aggregator that adds per-shard sections.
  void set_slo_provider(std::function<std::string()> fn) {
    slo_fn_ = std::move(fn);
  }

  /// Microseconds since start() — the live clock the belief model runs on.
  sim::SimTime elapsed_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  /// A finished response parked in the reorder buffer.
  struct DoneEntry {
    std::string bytes;
    std::int64_t t_done_us = 0;  ///< when the response bytes were built
    std::unique_ptr<obs::LiveSpan> trace;  ///< null unless sampled
  };

  struct ClientConn {
    Fd fd;
    std::uint64_t key = 0;
    std::uint32_t conn_id = 0;  ///< RoutingCore connection id
    RequestParser parser;
    OutQueue out;  ///< responses, flushed with vectored sendmsg
    bool closing = false;
    bool want_write = false;
    /// When the current readable burst started (live-span arrival stamp).
    std::int64_t read_enter_us = 0;
    // In-order response relay: requests get ascending sequence numbers;
    // finished responses wait in `done` until every earlier one flushed.
    std::uint64_t next_seq = 0;
    std::uint64_t next_flush = 0;
    std::map<std::uint64_t, DoneEntry> done;
    /// Recent main pages (prediction context; newest last).
    std::vector<trace::FileId> history;
  };

  /// One forwarded request awaiting its upstream response (FIFO per
  /// upstream connection — workers answer in order).
  struct Pending {
    std::uint64_t client_key = 0;
    std::uint64_t seq = 0;
    trace::Request request;
    std::int64_t t_in_us = 0;      ///< parsed (SLO latency starts here)
    std::int64_t t_routed_us = 0;  ///< routing decision committed
    std::int64_t t_sent_us = 0;    ///< forwarded bytes handed to the kernel
    std::unique_ptr<obs::LiveSpan> trace;  ///< null unless sampled
    /// Distributor-generated cache-warming request: its response is
    /// swallowed here and it is excluded from every client-facing account
    /// (conservation, SLO, router belief, failure replies).
    bool prefetch = false;
  };

  struct Upstream {
    Fd fd;
    std::uint32_t worker = 0;
    ResponseParser parser;
    OutQueue out;  ///< forwarded requests, flushed with vectored sendmsg
    bool want_write = false;
    std::deque<Pending> pending;
  };

  void run();
  void accept_clients();
  /// Registers an accepted/adopted client fd with the event loop.
  void register_client(Fd fd);
  /// Moves handoff-inbox fds onto the event loop (shard thread only).
  void drain_adopted();
  void handle_client_readable(ClientConn& conn);
  void handle_request(ClientConn& conn, const HttpRequest& req);
  void local_reply(ClientConn& conn, std::uint64_t seq, int status,
                   std::string_view reason, std::string_view body,
                   std::string_view extra_headers = {});
  void finish_response(ClientConn& conn, std::uint64_t seq, DoneEntry entry);
  void pump_client(ClientConn& conn);
  bool flush_client(ClientConn& conn);
  void drop_client(std::uint64_t key);

  void handle_upstream_readable(Upstream& up);
  bool flush_upstream(Upstream& up);
  void fail_upstream(Upstream& up);

  /// Feeds the routed request to the predictor link and, for main pages,
  /// issues prefetch GETs for the confident associations. No-op unless
  /// set_predictor() armed the seam.
  void predict_and_prefetch(ClientConn& conn, const trace::Request& r,
                            std::uint32_t server, std::uint64_t req_index,
                            std::int64_t now_us);
  void issue_prefetch(std::uint32_t server, trace::FileId file,
                      std::uint64_t req_index, std::int64_t now_us);

  /// Feeds one settled request into the SLO monitor and keeps the rolling
  /// burn-rate evaluation moving (eval once per slice).
  void slo_record(std::int64_t now_us, std::int64_t latency_us, bool success);
  void slo_tick(std::int64_t now_us);
  void complete_span(std::unique_ptr<obs::LiveSpan> span);
  /// Dumps the flight recorder if a path is configured; automatic reasons
  /// honor the cooldown, `force` (SIGUSR2) does not.
  void flight_dump(std::int64_t now_us, const char* reason, bool force);

  LiveRouter& router_;
  const SiteStore& site_;
  std::vector<BackendWorker*> workers_;

  Fd listen_;
  EpollLoop loop_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point t0_{};

  std::vector<Upstream> upstreams_;  ///< index = worker/back-end id
  std::unordered_map<std::uint64_t, ClientConn> clients_;
  std::uint64_t next_client_key_;
  std::uint32_t next_conn_id_ = 1;

  // Shard wiring (fixed before start()). The inbox is the only
  // cross-thread mutable state: peers push accepted fds, the shard thread
  // drains them on its next iteration.
  DistributorShardOptions shard_;
  std::size_t next_handoff_ = 0;
  std::mutex adopt_mu_;
  std::vector<Fd> adopt_inbox_;

  std::function<std::string()> metrics_fn_;
  std::function<std::string()> slo_fn_;
  DistributorCounters counters_;

  // Live prefetch state (distributor-thread only, except the counters).
  std::shared_ptr<predict::IPredictorLink> predict_link_;
  double prefetch_min_confidence_ = 0.4;
  std::size_t prefetch_fanout_ = 2;
  /// Issued, awaiting the worker's warm-up ack (dedup key).
  std::unordered_map<trace::FileId, std::uint32_t> prefetch_inflight_;
  /// Warmed, awaiting the first client cache HIT (hit attribution).
  std::unordered_set<trace::FileId> prefetch_ready_;

  // Observability (distributor-thread state unless noted).
  DistributorObsOptions obs_;
  obs::Tracer trace_sampler_{0.0};  ///< used only for sampled(index)
  std::vector<obs::LiveSpan> spans_;
  obs::SloMonitor slo_;
  std::int64_t next_slo_eval_us_ = 0;
  std::int64_t last_flight_dump_us_ = -1;
};

}  // namespace prord::net
