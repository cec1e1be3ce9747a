#include "net/load_generator.h"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>

namespace prord::net {
namespace {

std::int64_t now_us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

LoadGenerator::LoadGenerator(const trace::Workload& workload,
                             LoadGenOptions options)
    : workload_(workload), options_(options) {
  if (options_.concurrency == 0) options_.concurrency = 1;
  if (options_.pipeline_depth == 0) options_.pipeline_depth = 1;
  if (options_.time_scale <= 0) options_.time_scale = 1.0;

  channels_.resize(options_.concurrency);
  for (std::size_t i = 0; i < workload_.requests.size(); ++i) {
    const std::size_t ch =
        workload_.requests[i].conn % options_.concurrency;
    channels_[ch].plan.push_back(i);
  }
  // Channels that drew no trace connection stay idle; effective
  // concurrency is min(concurrency, distinct trace connections).
  std::erase_if(channels_, [](const Channel& c) { return c.plan.empty(); });

  budget_ = options_.total_requests ? options_.total_requests
                                    : workload_.requests.size();
}

bool LoadGenerator::send_next(Channel& ch, std::int64_t now_us) {
  if (budget_ == 0 || ch.plan.empty() || !ch.fd.valid()) return false;
  const std::size_t idx = ch.plan[ch.cursor % ch.plan.size()];
  ++ch.cursor;
  const trace::Request& req = workload_.requests[idx];
  ch.out.write([&](std::string& out) {
    append_request(out, workload_.files.url(req.file));
  });
  ch.sent_at_us.push_back(now_us);
  ++ch.issued;
  ++result_.issued;
  --budget_;
  return true;
}

void LoadGenerator::fail_inflight(Channel& ch) {
  result_.failed += ch.sent_at_us.size();
  ch.sent_at_us.clear();
  ch.out.clear();
}

bool LoadGenerator::reconnect(Channel& ch, std::size_t idx) {
  if (ch.fd.valid()) loop_.del(ch.fd.get());
  ch.fd = connect_loopback(options_.port);
  if (!ch.fd) return false;
  set_nonblocking(ch.fd.get());
  ch.scanner = ResponseScanner{};
  ch.want_write = false;
  return loop_.add(ch.fd.get(), EPOLLIN, idx);
}

bool LoadGenerator::flush(Channel& ch, std::size_t idx) {
  return flush_watching(loop_, ch.fd.get(), idx, ch.out, ch.want_write);
}

LoadGenResult LoadGenerator::run() {
  const auto t0 = std::chrono::steady_clock::now();
  if (!loop_.valid() || channels_.empty() || workload_.requests.empty())
    return std::move(result_);

  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!reconnect(channels_[i], i)) fail_inflight(channels_[i]);
  }

  // Open loop: per-channel trace arrival schedule (µs, compressed).
  // Replays past the first pass shift by the trace span + 1 s per cycle.
  const auto arrival_us = [this](const Channel& ch) -> std::int64_t {
    const std::size_t pos = ch.cursor % ch.plan.size();
    const auto cycle =
        static_cast<std::int64_t>(ch.cursor / ch.plan.size());
    const std::int64_t base = static_cast<std::int64_t>(
        static_cast<double>(workload_.requests[ch.plan[pos]].at) /
        options_.time_scale);
    const std::int64_t span = static_cast<std::int64_t>(
        static_cast<double>(workload_.span()) / options_.time_scale);
    return base + cycle * (span + 1'000'000);
  };

  // Prime the pipelines.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel& ch = channels_[i];
    if (!ch.fd.valid()) continue;
    if (options_.open_loop) continue;  // paced sends happen in the loop
    for (std::size_t d = 0; d < options_.pipeline_depth; ++d)
      if (!send_next(ch, now_us_since(t0))) break;
    if (!flush(ch, i)) {
      fail_inflight(ch);
      if (!reconnect(ch, i)) ch.fd.reset();
    }
  }

  std::array<epoll_event, 64> events;
  std::int64_t last_progress = now_us_since(t0);
  while (result_.completed + result_.failed < result_.issued ||
         budget_ > 0) {
    const std::int64_t now = now_us_since(t0);
    if (now - last_progress > options_.idle_timeout_us) {
      for (Channel& ch : channels_) fail_inflight(ch);
      break;
    }
    // Open loop: emit every due request.
    if (options_.open_loop) {
      for (std::size_t i = 0; i < channels_.size(); ++i) {
        Channel& ch = channels_[i];
        if (!ch.fd.valid() || ch.plan.empty()) continue;
        bool sent = false;
        while (budget_ > 0 && arrival_us(ch) <= now) {
          if (!send_next(ch, now)) break;
          sent = true;
        }
        if (sent && !flush(ch, i)) {
          fail_inflight(ch);
          if (!reconnect(ch, i)) ch.fd.reset();
        }
      }
    }
    const int n = loop_.wait(events, /*timeout_ms=*/options_.open_loop ? 2
                                                                       : 100);
    if (n < 0) break;
    for (int e = 0; e < n; ++e) {
      const auto& ev = events[static_cast<std::size_t>(e)];
      const std::uint64_t key = ev.data.u64;
      if (key == EpollLoop::kWakeKey) continue;
      const std::size_t i = static_cast<std::size_t>(key);
      if (i >= channels_.size()) continue;
      Channel& ch = channels_[i];
      if (!ch.fd.valid()) continue;
      bool broken = (ev.events & (EPOLLHUP | EPOLLERR)) != 0;
      while (!broken && (ev.events & EPOLLIN)) {
        const ReadStatus status = ch.scanner.read_from(ch.fd.get());
        const std::int64_t rx = now_us_since(t0);
        while (const std::optional<ResponseView> resp = ch.scanner.next()) {
          ++result_.completed;
          result_.bytes_in += resp->body.size();
          if (resp->status >= 200 && resp->status < 300)
            ++result_.status_ok;
          else
            ++result_.status_error;
          if (!ch.sent_at_us.empty()) {
            const double lat = static_cast<double>(rx - ch.sent_at_us.front());
            ch.sent_at_us.pop_front();
            result_.latency_us.add(lat);
            result_.latency_hist.record(
                static_cast<std::uint64_t>(lat < 0 ? 0 : lat));
          }
          last_progress = rx;
          if (!options_.open_loop) send_next(ch, rx);
        }
        ch.scanner.consume();
        broken = ch.scanner.failed() || status == ReadStatus::kClosed;
        if (status == ReadStatus::kDrained) break;
      }
      if (!broken && (ev.events & (EPOLLIN | EPOLLOUT)))
        broken = !flush(ch, i);
      if (broken) {
        fail_inflight(ch);
        if (!reconnect(ch, i)) ch.fd.reset();
      }
    }
  }

  for (Channel& ch : channels_)
    if (ch.fd.valid()) loop_.del(ch.fd.get());
  result_.duration_s =
      static_cast<double>(now_us_since(t0)) / 1'000'000.0;
  return std::move(result_);
}

}  // namespace prord::net
