// LoadGenerator: trace-replay client for the live loopback cluster.
//
// Replays a trace::Workload against the distributor over `concurrency`
// persistent HTTP/1.1 connections (channels). Trace connections hash onto
// channels, so one trace connection's requests stay on one channel in
// trace order. Two driving modes:
//   - closed loop (default): each channel keeps at most `pipeline_depth`
//     requests outstanding and sends the next one when a response lands —
//     the firehose that measures saturation throughput;
//   - open loop (paced): each request is sent at its trace arrival time
//     divided by `time_scale`, regardless of outstanding responses.
// Latency is measured send-to-response per request on the wall clock.
//
// Single-threaded epoll: run() blocks the calling thread until
// `total_requests` have settled (completed + failed) or the inactivity
// timeout trips (remaining in-flight requests are then counted failed, so
// conservation — completed + failed == issued — always holds).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "metrics/histogram.h"
#include "metrics/stats.h"
#include "net/http.h"
#include "net/socket.h"
#include "trace/workload.h"

namespace prord::net {

struct LoadGenOptions {
  std::uint16_t port = 0;            ///< distributor port
  std::size_t concurrency = 16;      ///< parallel channels
  std::size_t total_requests = 0;    ///< 0 = one pass over the workload
  std::size_t pipeline_depth = 1;    ///< closed-loop outstanding cap
  bool open_loop = false;
  double time_scale = 1.0;           ///< open loop: arrival compression
  std::int64_t idle_timeout_us = 10'000'000;  ///< abort when nothing moves
};

struct LoadGenResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;  ///< responses received (any status)
  std::uint64_t failed = 0;     ///< connection loss / timeout casualties
  std::uint64_t status_ok = 0;      ///< 2xx responses
  std::uint64_t status_error = 0;   ///< non-2xx responses
  std::uint64_t bytes_in = 0;
  double duration_s = 0.0;
  metrics::RunningStats latency_us;
  metrics::Histogram latency_hist{1ULL << 32};

  bool conserved() const noexcept { return completed + failed == issued; }
  double throughput_rps() const {
    return duration_s > 0 ? static_cast<double>(completed) / duration_s : 0.0;
  }
};

class LoadGenerator {
 public:
  /// `workload` is borrowed and must outlive run().
  LoadGenerator(const trace::Workload& workload, LoadGenOptions options);

  /// Blocking replay; returns the settled result.
  LoadGenResult run();

 private:
  struct Channel {
    Fd fd;
    ResponseScanner scanner;
    OutQueue out;
    bool want_write = false;
    std::vector<std::size_t> plan;  ///< workload request indices, in order
    std::size_t cursor = 0;         ///< next plan position (wraps)
    std::deque<std::int64_t> sent_at_us;  ///< in-flight send stamps
    std::uint64_t issued = 0;
  };

  bool send_next(Channel& ch, std::int64_t now_us);
  bool flush(Channel& ch, std::size_t idx);
  void fail_inflight(Channel& ch);
  bool reconnect(Channel& ch, std::size_t idx);

  const trace::Workload& workload_;
  LoadGenOptions options_;
  EpollLoop loop_;
  std::vector<Channel> channels_;
  std::uint64_t budget_ = 0;  ///< requests still to issue
  LoadGenResult result_;
};

}  // namespace prord::net
