// The benchmark's own HTTP/1.1 load client.
//
// One thread drives a fixed set of persistent loopback connections
// ("channels") on an open-loop schedule: each request is sent when it is
// due, whether or not earlier requests on its channel have been answered
// (HTTP/1.1 pipelining), so a slow server builds a queue instead of
// slowing the offered load. Latency is timed from the due time, so a
// stall is charged to every request it delays, and the client records
// how late it sent each request (its lag) so a step where the client, not
// the server, fell behind can be recognised.
//
// Every response is checked: status 200 and a body byte-equal to the
// expected payload of the request at the head of its channel (responses
// arrive in request order, so a body that belongs to another pending
// request counts as misordered). Anything else is a failure, and
// issued == ok + failed holds at the end of every step.
//
// The client shares no code with the program under test: it has its own
// sockets, request writer and response parser.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (the clock steady_clock uses on Linux).
std::int64_t now_ns();

/// What the client needs to know about the site: per file id, the URL to
/// request and the exact body a correct server answers with.
struct SiteView {
  std::vector<std::string> urls;
  std::vector<std::string> payloads;
};

/// One request of a step: which file, on which channel.
struct Send {
  std::uint32_t file = 0;
  std::uint32_t channel = 0;
};

struct StepPlan {
  /// Due times in ns from `start_ns`, ascending; one per entry of `sends`.
  std::vector<std::int64_t> due_ns;
  std::vector<Send> sends;
  /// Absolute now_ns() of the step's time zero; 0 = a moment after run().
  std::int64_t start_ns = 0;
  /// Stop issuing once this many requests are outstanding (0 = never):
  /// an overloaded rate step ends early instead of queueing for seconds.
  std::uint64_t abort_backlog = 0;
  /// Requests still unanswered this long after issuing stopped count as
  /// dropped, and their channels are reset.
  std::int64_t drain_timeout_ns = 3'000'000'000;
  /// Record the X-Prord-Trace id of every traced reply.
  bool collect_trace_ids = false;
};

/// A reply that carried a trace id (the server sampled it).
struct TracedReply {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  double latency_us = 0.0;  ///< due -> response received
  double service_us = 0.0;  ///< sent -> response received
};

struct StepResult {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  ///< sum of the five causes below
  std::uint64_t bad_status = 0;
  std::uint64_t wrong_body = 0;
  std::uint64_t misordered = 0;
  std::uint64_t dropped = 0;  ///< connection lost or drain timeout
  std::uint64_t refused = 0;  ///< channel could not be (re)connected
  std::vector<double> latency_us;  ///< due -> received, ok replies only
  std::vector<double> lag_us;      ///< due -> sent, every issued request
  std::vector<TracedReply> traced;
  /// Requests outstanding at the moment the last one was issued.
  std::uint64_t backlog_at_end = 0;
  bool aborted = false;
  /// Span of the schedule actually issued, first to last due time.
  double window_s = 0.0;

  bool conserved() const { return ok + failed == issued; }
};

class OpenLoopClient {
 public:
  /// `site` is borrowed and must outlive the client.
  OpenLoopClient(const SiteView& site, std::uint16_t port,
                 std::size_t channels);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Opens every channel that is not open. False if any connect failed.
  bool connect();
  /// Runs one step to completion (every issued request settled).
  StepResult run(const StepPlan& plan);

 private:
  struct Inflight {
    std::uint32_t file = 0;
    std::int64_t due = 0;
    std::int64_t sent = 0;
  };
  struct Channel {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    bool want_write = false;
    std::vector<char> in;
    std::size_t in_begin = 0;
    std::size_t in_end = 0;
    std::deque<Inflight> inflight;
  };

  bool open_channel(std::size_t idx);
  void close_channel(std::size_t idx, StepResult& r);
  bool flush(std::size_t idx);
  /// Reads one chunk and parses it; false when the channel died.
  bool read_ready(std::size_t idx, StepResult& r, bool trace_ids);
  /// Parses complete responses out of the channel's buffer.
  bool parse(Channel& ch, std::int64_t t_recv, StepResult& r,
             bool trace_ids);
  void complete(Channel& ch, int status, const char* body, std::size_t len,
                const char* trace, std::int64_t t_recv, StepResult& r);

  const SiteView& site_;
  const std::uint16_t port_;
  int epoll_ = -1;
  std::vector<Channel> channels_;
  std::uint64_t outstanding_ = 0;
};

}  // namespace perfbench
