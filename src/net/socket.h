// Thin RAII wrappers over the Linux socket and epoll syscalls used by the
// live loopback cluster. Everything binds/connects 127.0.0.1 only — this
// is a measurement prototype, not an exposed server.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prord::net {

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  explicit operator bool() const noexcept { return valid(); }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Puts the descriptor in non-blocking mode. Returns false on failure.
bool set_nonblocking(int fd);

/// Disables Nagle (latency over tiny loopback writes). Best-effort.
void set_nodelay(int fd);

/// Listener knobs. The default backlog is sized for accept storms from a
/// multi-threaded load generator — 128 (the old default) overflows during
/// connection bursts and the kernel silently drops SYNs, which shows up as
/// seconds-long retransmit stalls rather than errors.
struct ListenOptions {
  int backlog = 1024;
  /// Request SO_REUSEPORT so several shards can bind the same port and let
  /// the kernel spread connections across them.
  bool reuseport = false;
};

/// True when this kernel accepts SO_REUSEPORT on a TCP socket. Probed once
/// (one throwaway socket) and cached.
bool reuseport_supported();

/// Listening socket bound to 127.0.0.1:`port`; `port` 0 picks an
/// ephemeral port and is updated to the one the kernel chose. Invalid Fd
/// on failure (errno holds the cause).
Fd listen_loopback(std::uint16_t& port, const ListenOptions& options);
Fd listen_loopback(std::uint16_t& port, int backlog = 1024);

/// Blocking connect to 127.0.0.1:`port` (setup path only — the returned
/// socket is switched to non-blocking by the caller when it enters an
/// event loop). Invalid Fd on failure.
Fd connect_loopback(std::uint16_t port);

/// Level-triggered epoll loop with an eventfd wake channel so other
/// threads can interrupt a blocking wait.
class EpollLoop {
 public:
  EpollLoop();
  bool valid() const noexcept { return epoll_.valid() && wake_.valid(); }

  /// Registers `fd` with event mask `events`; `key` comes back in
  /// epoll_event::data.u64. Returns false on syscall failure.
  bool add(int fd, std::uint32_t events, std::uint64_t key);

  /// add() with EPOLLEXCLUSIVE so concurrent listeners on a shared socket
  /// don't all wake per connection (thundering herd). Falls back to a plain
  /// add() where the kernel rejects the flag; `exclusive` (optional) reports
  /// which mode stuck. EPOLLEXCLUSIVE forbids a later mod() on the fd — only
  /// use this for listen sockets whose mask never changes.
  bool add_listener(int fd, std::uint64_t key, bool* exclusive = nullptr);
  bool mod(int fd, std::uint32_t events, std::uint64_t key);
  void del(int fd);

  /// Waits up to `timeout_ms` (-1 = forever). Returns the number of ready
  /// events written to `out`, 0 on timeout, -1 on failure (EINTR is
  /// retried internally). Wake-channel events are consumed and reported
  /// with key == kWakeKey.
  int wait(std::span<epoll_event> out, int timeout_ms);

  /// Thread-safe: makes a concurrent (or the next) wait() return.
  void wake();

  static constexpr std::uint64_t kWakeKey = ~0ull;

 private:
  Fd epoll_;
  Fd wake_;
};

/// Outbound byte queue flushed with one vectored sendmsg() per round.
/// Small writes land in the tail segment, so a burst of responses costs
/// one syscall and few iovecs; a shared payload rides as its own segment
/// without being copied. Sent segments keep their buffers for reuse, so
/// a connection in steady state allocates nothing here.
class OutQueue {
 public:
  /// Copies `bytes` onto the tail segment.
  void append(std::string_view bytes) {
    write([&](std::string& tail) { tail.append(bytes); });
  }

  /// Lets `fill` append straight into the tail segment (no staging copy).
  template <class Fill>
  void write(Fill&& fill) {
    std::string& tail = owned_tail();
    const std::size_t before = tail.size();
    fill(tail);
    size_ += tail.size() - before;
  }

  /// Queues `payload` by reference: it is sent from the caller's buffer,
  /// which the queue keeps alive until the bytes are on the socket.
  void append_shared(std::shared_ptr<const std::string> payload);

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Writes as much as the socket accepts (MSG_NOSIGNAL, up to kMaxIov
  /// segments per sendmsg). Returns false on a fatal socket error; EAGAIN
  /// is a successful partial flush.
  bool flush(int fd);

  void clear();

  static constexpr std::size_t kMaxIov = 64;
  /// Appends join the tail segment while it stays below this size.
  static constexpr std::size_t kSegmentBytes = 64 * 1024;

 private:
  struct Segment {
    std::string own;  ///< copied bytes (unused while `shared` is set)
    std::shared_ptr<const std::string> shared;
    std::string_view bytes() const noexcept {
      return shared ? std::string_view(*shared) : std::string_view(own);
    }
  };

  /// The live tail when it holds copied bytes with room left, else a
  /// recycled (or new) empty slot that becomes the tail.
  std::string& owned_tail();
  Segment& push_slot();
  void pop_front();

  // Live segments are slots_[head_, tail_); the other slots were sent and
  // keep their capacity for reuse.
  std::vector<Segment> slots_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t head_off_ = 0;  ///< bytes of the head segment already sent
  std::size_t size_ = 0;
};

/// Flushes `out` to `fd`, then keeps EPOLLOUT armed on `loop` exactly
/// while bytes remain (`want_write` tracks the mask; EPOLLIN stays on).
/// False on a fatal socket error.
bool flush_watching(EpollLoop& loop, int fd, std::uint64_t key, OutQueue& out,
                    bool& want_write);

}  // namespace prord::net
