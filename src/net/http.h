// Minimal incremental HTTP/1.1 message scanning for the live loopback
// cluster (docs/LIVE_CLUSTER.md).
//
// Scope: exactly what the distributor, the backend workers, and the load
// generator exchange — GET-style requests without bodies (a Content-Length
// body is tolerated and skipped) and responses framed by Content-Length.
// No chunked transfer coding, no HTTP/1.0 keep-alive negotiation beyond
// the Connection header, no continuation lines.
//
// Scanners are views over their own read buffer: read_from() receives
// straight into it, next() returns the next complete message as
// string_views into it, and consume() releases every message next() has
// returned. Views stay valid across further next() calls until consume();
// the buffer is compacted only when the next read needs room, so a batch
// of pipelined messages costs no per-message copy or memmove. A protocol
// error latches: next() returns nothing more, failed() turns true, and
// the connection should be dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace prord::net {

/// Header block cap: a peer that streams an unbounded header section is
/// broken or hostile; drop it instead of buffering forever.
inline constexpr std::size_t kMaxHeaderBytes = 16 * 1024;
/// Response body cap (64 MiB — far above any synthetic site file).
inline constexpr std::size_t kMaxBodyBytes = 64ull * 1024 * 1024;

/// Case-insensitive lookup in a header block of "Name: value\r\n" lines;
/// the value comes back trimmed, nullopt when the header is absent.
std::optional<std::string_view> find_header(std::string_view block,
                                            std::string_view name);

struct RequestView {
  std::string_view method;
  std::string_view target;   ///< origin-form path, e.g. "/d/17.html"
  std::string_view version;  ///< "HTTP/1.1"
  std::string_view headers;  ///< header lines after the request line
  std::string_view raw;      ///< the whole head as received
  bool keep_alive = true;

  std::optional<std::string_view> header(std::string_view name) const {
    return find_header(headers, name);
  }
};

struct ResponseView {
  int status = 0;
  std::string_view reason;
  std::string_view headers;  ///< header lines after the status line
  std::string_view body;
  std::string_view raw;  ///< the whole message (head and body) as received
  bool keep_alive = true;

  std::optional<std::string_view> header(std::string_view name) const {
    return find_header(headers, name);
  }
};

/// What one read_from() left behind on the socket.
enum class ReadStatus {
  kMore,     ///< filled the room offered: more may be queued
  kDrained,  ///< short read or EAGAIN: the socket is empty for now
  kClosed,   ///< orderly EOF or a fatal socket error
};

/// The read buffer both scanners share.
class ScanBuffer {
 public:
  /// Bytes offered to one recv(): a short read means the socket drained.
  static constexpr std::size_t kReadChunk = 64 * 1024;

  /// One recv() straight into the buffer (EINTR retried). Compacts the
  /// consumed prefix first, so views from next() must be consumed.
  ReadStatus read_from(int fd);

  /// Appends bytes that arrived some other way (tests, in-memory feeds).
  /// Same view rule as read_from().
  void append(std::string_view bytes);

  /// Releases every message next() returned; their views die here.
  void consume() noexcept {
    begin_ = scan_;
    if (begin_ == end_) begin_ = scan_ = end_ = 0;
  }

  bool failed() const noexcept { return failed_; }
  std::string_view error() const noexcept { return error_; }

 protected:
  std::string_view unscanned() const noexcept {
    return {buf_.get() + scan_, end_ - scan_};
  }
  void fail(std::string_view what) noexcept {
    failed_ = true;
    error_ = what;
  }

  std::size_t scan_ = 0;  ///< end of the last message next() returned

 private:
  /// Free space for at least `n` more bytes past end_.
  char* room(std::size_t n);

  // Left uninitialised: only bytes the socket wrote are ever touched.
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t begin_ = 0;  ///< first byte not yet consumed
  std::size_t end_ = 0;    ///< end of received bytes
  bool failed_ = false;
  std::string_view error_;  ///< static message
};

class RequestScanner : public ScanBuffer {
 public:
  /// Next complete request, in arrival order; nullopt when incomplete or
  /// failed.
  std::optional<RequestView> next();

 private:
  std::size_t body_skip_ = 0;  ///< request-body bytes still to discard
};

class ResponseScanner : public ScanBuffer {
 public:
  std::optional<ResponseView> next();
};

/// Appends a GET request (the only method the cluster exchanges);
/// `extra_headers` must be complete "Name: value\r\n" lines.
void append_request(std::string& out, std::string_view target,
                    std::string_view host = "prord",
                    std::string_view extra_headers = {});

/// append_request() into a fresh string.
std::string format_request(std::string_view target,
                           std::string_view host = "prord",
                           std::string_view extra_headers = {});

/// Appends the first two lines of a response head framing `body_size`
/// bytes: the status line and Content-Length. The caller adds any further
/// header lines and the blank line.
void append_response_start(std::string& out, int status,
                           std::string_view reason, std::size_t body_size);

/// A whole response: append_response_start(), `extra_headers` (complete
/// "Name: value\r\n" lines), the blank line and `body`.
std::string format_response(int status, std::string_view reason,
                            std::string_view body,
                            std::string_view extra_headers = {});

}  // namespace prord::net
