#include "net/socket.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace prord::net {

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

bool reuseport_supported() {
  static const bool supported = [] {
    Fd probe(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!probe) return false;
    const int one = 1;
    return ::setsockopt(probe.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                        sizeof(one)) == 0;
  }();
  return supported;
}

Fd listen_loopback(std::uint16_t& port, const ListenOptions& options) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return {};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options.reuseport &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
          0) {
    return {};
  }
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return {};
  if (::listen(fd.get(), options.backlog) != 0) return {};
  if (port == 0) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      return {};
    port = ntohs(addr.sin_port);
  }
  return fd;
}

Fd listen_loopback(std::uint16_t& port, int backlog) {
  ListenOptions options;
  options.backlog = backlog;
  return listen_loopback(port, options);
}

Fd connect_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return {};
  sockaddr_in addr = loopback_addr(port);
  while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return {};
  }
  set_nodelay(fd.get());
  return fd;
}

EpollLoop::EpollLoop()
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (valid()) add(wake_.get(), EPOLLIN, kWakeKey);
}

bool EpollLoop::add(int fd, std::uint32_t events, std::uint64_t key) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = key;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool EpollLoop::add_listener(int fd, std::uint64_t key, bool* exclusive) {
#ifdef EPOLLEXCLUSIVE
  if (add(fd, EPOLLIN | EPOLLEXCLUSIVE, key)) {
    if (exclusive) *exclusive = true;
    return true;
  }
#endif
  if (exclusive) *exclusive = false;
  return add(fd, EPOLLIN, key);
}

bool EpollLoop::mod(int fd, std::uint32_t events, std::uint64_t key) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = key;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EpollLoop::del(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int EpollLoop::wait(std::span<epoll_event> out, int timeout_ms) {
  while (true) {
    const int n = ::epoll_wait(epoll_.get(), out.data(),
                               static_cast<int>(out.size()), timeout_ms);
    if (n >= 0) {
      for (int i = 0; i < n; ++i) {
        if (out[static_cast<std::size_t>(i)].data.u64 == kWakeKey) {
          std::uint64_t drain = 0;
          while (::read(wake_.get(), &drain, sizeof(drain)) > 0) {
          }
        }
      }
      return n;
    }
    if (errno != EINTR) return -1;
  }
}

void EpollLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_.get(), &one, sizeof(one));
}

OutQueue::Segment& OutQueue::push_slot() {
  if (tail_ == slots_.size() && head_ > 0) {
    // Rotate the live run to the front; the sent slots behind it keep
    // their buffers, so this moves strings without allocating.
    std::rotate(slots_.begin(),
                slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                slots_.begin() + static_cast<std::ptrdiff_t>(tail_));
    tail_ -= head_;
    head_ = 0;
  }
  if (tail_ == slots_.size()) slots_.emplace_back();
  return slots_[tail_++];
}

std::string& OutQueue::owned_tail() {
  if (tail_ > head_) {
    Segment& last = slots_[tail_ - 1];
    if (!last.shared && last.own.size() < kSegmentBytes) return last.own;
  }
  return push_slot().own;
}

void OutQueue::append_shared(std::shared_ptr<const std::string> payload) {
  if (!payload || payload->empty()) return;
  size_ += payload->size();
  push_slot().shared = std::move(payload);
}

void OutQueue::pop_front() {
  Segment& seg = slots_[head_++];
  // Keep ordinary buffers for reuse, but not one a large relay grew.
  if (seg.own.capacity() > 4 * kSegmentBytes)
    std::string().swap(seg.own);
  else
    seg.own.clear();
  seg.shared.reset();
  head_off_ = 0;
  if (head_ == tail_) head_ = tail_ = 0;
}

void OutQueue::clear() {
  while (head_ < tail_) pop_front();
  size_ = 0;
}

bool OutQueue::flush(int fd) {
  while (size_ > 0) {
    iovec iov[kMaxIov];
    std::size_t n = 0;
    std::size_t attempted = 0;
    std::size_t off = head_off_;
    for (std::size_t i = head_; i < tail_ && n < kMaxIov; ++i) {
      const std::string_view seg = slots_[i].bytes();
      iov[n].iov_base = const_cast<char*>(seg.data() + off);
      iov[n].iov_len = seg.size() - off;
      attempted += iov[n].iov_len;
      ++n;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    ssize_t sent;
    do {
      sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    } while (sent < 0 && errno == EINTR);
    if (sent < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    size_ -= static_cast<std::size_t>(sent);
    auto remaining = static_cast<std::size_t>(sent);
    while (remaining > 0) {
      const std::size_t head_left = slots_[head_].bytes().size() - head_off_;
      if (remaining >= head_left) {
        remaining -= head_left;
        pop_front();
      } else {
        head_off_ += remaining;
        remaining = 0;
      }
    }
    // A short sendmsg means the socket buffer is full; stop until EPOLLOUT.
    if (static_cast<std::size_t>(sent) < attempted) break;
  }
  return true;
}

bool flush_watching(EpollLoop& loop, int fd, std::uint64_t key, OutQueue& out,
                    bool& want_write) {
  if (!out.flush(fd)) return false;
  if (out.empty() == want_write) {
    want_write = !want_write;
    loop.mod(fd, want_write ? EPOLLIN | EPOLLOUT : EPOLLIN, key);
  }
  return true;
}

}  // namespace prord::net
