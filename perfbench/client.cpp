#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <string_view>

namespace perfbench {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;

bool iequals_prefix(std::string_view line, std::string_view name) {
  if (line.size() < name.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char a = line[i] >= 'A' && line[i] <= 'Z'
                       ? static_cast<char>(line[i] - 'A' + 'a')
                       : line[i];
    if (a != name[i]) return false;
  }
  return true;
}

std::uint64_t parse_hex64(const char* p, bool& ok) {
  std::uint64_t v = 0;
  for (int i = 0; i < 16; ++i) {
    const char c = p[i];
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else ok = false;
  }
  return v;
}

}  // namespace

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

OpenLoopClient::OpenLoopClient(const SiteView& site, std::uint16_t port,
                               std::size_t channels)
    : site_(site), port_(port), channels_(channels) {
  epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
  // Sleeps (only while draining replies) end within a microsecond of their
  // deadline, not the default 50 us later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

OpenLoopClient::~OpenLoopClient() {
  for (Channel& ch : channels_)
    if (ch.fd >= 0) ::close(ch.fd);
  if (epoll_ >= 0) ::close(epoll_);
}

bool OpenLoopClient::open_channel(std::size_t idx) {
  Channel& ch = channels_[idx];
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = idx;
  if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return false;
  }
  ch.fd = fd;
  ch.out.clear();
  ch.out_off = 0;
  ch.want_write = false;
  ch.in.assign(2 * kReadChunk, 0);
  ch.in_begin = ch.in_end = 0;
  return true;
}

bool OpenLoopClient::connect() {
  if (epoll_ < 0) return false;
  bool ok = true;
  for (std::size_t i = 0; i < channels_.size(); ++i)
    if (channels_[i].fd < 0 && !open_channel(i)) ok = false;
  return ok;
}

void OpenLoopClient::close_channel(std::size_t idx, StepResult& r) {
  Channel& ch = channels_[idx];
  if (ch.fd >= 0) {
    ::epoll_ctl(epoll_, EPOLL_CTL_DEL, ch.fd, nullptr);
    ::close(ch.fd);
    ch.fd = -1;
  }
  r.dropped += ch.inflight.size();
  r.failed += ch.inflight.size();
  outstanding_ -= ch.inflight.size();
  ch.inflight.clear();
  ch.out.clear();
  ch.out_off = 0;
}

bool OpenLoopClient::flush(std::size_t idx) {
  Channel& ch = channels_[idx];
  while (ch.out_off < ch.out.size()) {
    const ssize_t n = ::send(ch.fd, ch.out.data() + ch.out_off,
                             ch.out.size() - ch.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      ch.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  const bool pending = ch.out_off < ch.out.size();
  if (!pending) {
    ch.out.clear();
    ch.out_off = 0;
  }
  if (pending != ch.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    ev.data.u64 = idx;
    ::epoll_ctl(epoll_, EPOLL_CTL_MOD, ch.fd, &ev);
    ch.want_write = pending;
  }
  return true;
}

void OpenLoopClient::complete(Channel& ch, int status, const char* body,
                              std::size_t len, const char* trace,
                              std::int64_t t_recv, StepResult& r) {
  const Inflight f = ch.inflight.front();
  ch.inflight.pop_front();
  --outstanding_;
  const auto matches = [&](std::uint32_t file) {
    const std::string& want = site_.payloads[file];
    return want.size() == len && std::memcmp(want.data(), body, len) == 0;
  };
  if (status != 200) {
    ++r.bad_status;
    ++r.failed;
    return;
  }
  if (!matches(f.file)) {
    const bool other = std::any_of(
        ch.inflight.begin(), ch.inflight.end(),
        [&](const Inflight& o) { return o.file != f.file && matches(o.file); });
    ++(other ? r.misordered : r.wrong_body);
    ++r.failed;
    return;
  }
  ++r.ok;
  const double latency_us = static_cast<double>(t_recv - f.due) / 1e3;
  r.latency_us.push_back(latency_us);
  if (trace != nullptr) {
    bool ok = true;
    TracedReply t;
    t.hi = parse_hex64(trace, ok);
    t.lo = parse_hex64(trace + 16, ok);
    t.latency_us = latency_us;
    t.service_us = static_cast<double>(t_recv - f.sent) / 1e3;
    if (ok) r.traced.push_back(t);
  }
}

bool OpenLoopClient::parse(Channel& ch, std::int64_t t_recv, StepResult& r,
                           bool trace_ids) {
  constexpr std::string_view kEnd = "\r\n\r\n";
  while (ch.in_begin < ch.in_end) {
    const std::string_view avail(ch.in.data() + ch.in_begin,
                                 ch.in_end - ch.in_begin);
    const std::size_t hdr_end = avail.find(kEnd);
    if (hdr_end == std::string_view::npos)
      return avail.size() <= kMaxHeaderBytes;
    const std::string_view head = avail.substr(0, hdr_end);
    // Status line: "HTTP/1.1 200 OK".
    if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return false;
    const std::size_t sp = head.find(' ');
    if (sp == std::string_view::npos || sp + 4 > head.size()) return false;
    int status = 0;
    for (std::size_t i = sp + 1; i < sp + 4; ++i) {
      if (head[i] < '0' || head[i] > '9') return false;
      status = status * 10 + (head[i] - '0');
    }
    std::size_t clen = 0;
    bool have_len = false;
    const char* trace = nullptr;
    std::size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos && pos < head.size()) {
      const std::size_t start = pos + 2;
      std::size_t next = head.find("\r\n", start);
      const std::string_view line = head.substr(
          start, (next == std::string_view::npos ? head.size() : next) - start);
      if (iequals_prefix(line, "content-length:")) {
        clen = 0;
        for (const char c : line.substr(15)) {
          if (c == ' ') continue;
          if (c < '0' || c > '9') return false;
          clen = clen * 10 + static_cast<std::size_t>(c - '0');
          if (clen > (std::size_t{1} << 30)) return false;
        }
        have_len = true;
      } else if (trace_ids && iequals_prefix(line, "x-prord-trace:")) {
        std::string_view v = line.substr(14);
        while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
        if (v.size() >= 32) trace = v.data();
      }
      pos = next;
    }
    if (!have_len) return false;
    const std::size_t body_at = hdr_end + kEnd.size();
    if (avail.size() < body_at + clen) {
      // Make room for the rest of a large body.
      const std::size_t need = body_at + clen;
      if (ch.in.size() - ch.in_begin < need + kReadChunk) {
        std::memmove(ch.in.data(), ch.in.data() + ch.in_begin,
                     ch.in_end - ch.in_begin);
        ch.in_end -= ch.in_begin;
        ch.in_begin = 0;
        if (ch.in.size() < need + kReadChunk) ch.in.resize(need + kReadChunk);
      }
      return true;
    }
    if (ch.inflight.empty()) return false;  // a response nobody asked for
    complete(ch, status, avail.data() + body_at, clen, trace, t_recv, r);
    ch.in_begin += body_at + clen;
  }
  ch.in_begin = ch.in_end = 0;
  return true;
}

bool OpenLoopClient::read_ready(std::size_t idx, StepResult& r,
                                bool trace_ids) {
  Channel& ch = channels_[idx];
  while (true) {
    if (ch.in.size() - ch.in_end < kReadChunk) {
      if (ch.in_begin > 0) {
        std::memmove(ch.in.data(), ch.in.data() + ch.in_begin,
                     ch.in_end - ch.in_begin);
        ch.in_end -= ch.in_begin;
        ch.in_begin = 0;
      }
      if (ch.in.size() - ch.in_end < kReadChunk)
        ch.in.resize(ch.in_end + 2 * kReadChunk);
    }
    const ssize_t n = ::recv(ch.fd, ch.in.data() + ch.in_end,
                             ch.in.size() - ch.in_end, 0);
    if (n > 0) {
      ch.in_end += static_cast<std::size_t>(n);
      // One read per wake-up: the loop must get back to sending what is
      // due. Level-triggered epoll reports the rest at once.
      return parse(ch, now_ns(), r, trace_ids);
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

StepResult OpenLoopClient::run(const StepPlan& plan) {
  StepResult r;
  const std::size_t n = std::min(plan.due_ns.size(), plan.sends.size());
  connect();  // reopen channels a previous step lost
  r.latency_us.reserve(n);
  r.lag_us.reserve(n);
  const std::int64_t start = plan.start_ns != 0 ? plan.start_ns
                                                : now_ns() + 1'000'000;
  std::size_t next = 0;
  std::int64_t first_due = -1, last_due = 0;
  std::int64_t drain_deadline = 0;  // set once issuing stops
  std::array<epoll_event, 64> events{};
  std::vector<std::size_t> touched;
  touched.reserve(channels_.size());

  while (true) {
    std::int64_t now = now_ns();
    // Issue everything due, one write per channel per round.
    if (!r.aborted) {
      touched.clear();
      while (next < n && start + plan.due_ns[next] <= now) {
        const Send& s = plan.sends[next];
        const std::int64_t due = start + plan.due_ns[next];
        ++next;
        ++r.issued;
        if (first_due < 0) first_due = due;
        last_due = due;
        r.lag_us.push_back(static_cast<double>(now - due) / 1e3);
        Channel& ch = channels_[s.channel % channels_.size()];
        if (ch.fd < 0) {
          ++r.refused;
          ++r.failed;
          continue;
        }
        ch.out += "GET ";
        ch.out += site_.urls[s.file];
        ch.out += " HTTP/1.1\r\nHost: prord\r\n\r\n";
        ch.inflight.push_back({s.file, due, now});
        ++outstanding_;
        const std::size_t idx = static_cast<std::size_t>(&ch - channels_.data());
        if (std::find(touched.begin(), touched.end(), idx) == touched.end())
          touched.push_back(idx);
      }
      for (const std::size_t idx : touched)
        if (!flush(idx)) close_channel(idx, r);
      if (next == n) r.backlog_at_end = outstanding_;
      if (plan.abort_backlog > 0 && outstanding_ > plan.abort_backlog &&
          next < n) {
        r.aborted = true;
        r.backlog_at_end = outstanding_;
      }
    }
    const bool issuing = !r.aborted && next < n;
    if (!issuing && outstanding_ == 0) break;

    std::int64_t deadline;
    if (issuing) {
      deadline = start + plan.due_ns[next];
    } else {
      if (drain_deadline == 0) drain_deadline = now + plan.drain_timeout_ns;
      if (now >= drain_deadline) {
        for (std::size_t i = 0; i < channels_.size(); ++i)
          if (!channels_[i].inflight.empty()) close_channel(i, r);
        break;
      }
      deadline = drain_deadline;
    }
    // While issuing, poll instead of sleeping: waking a sleeping thread
    // can cost milliseconds on a virtual machine, and that delay would be
    // charged to the requests as client lag.
    const std::int64_t wait_ns =
        issuing ? 0 : std::max<std::int64_t>(0, deadline - now);
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int got = ::epoll_pwait2(epoll_, events.data(),
                                   static_cast<int>(events.size()), &ts,
                                   nullptr);
    if (got < 0 && errno != EINTR) break;
    for (int i = 0; i < got; ++i) {
      const std::size_t idx = events[static_cast<std::size_t>(i)].data.u64;
      Channel& ch = channels_[idx];
      if (ch.fd < 0) continue;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      bool alive = true;
      if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR))
        alive = read_ready(idx, r, plan.collect_trace_ids);
      if (alive && (ev & EPOLLOUT)) alive = flush(idx);
      if (!alive) close_channel(idx, r);
    }
  }
  if (first_due >= 0) r.window_s = static_cast<double>(last_due - first_due) / 1e9;
  return r;
}

}  // namespace perfbench
