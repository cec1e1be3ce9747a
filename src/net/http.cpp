#include "net/http.h"

#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>

namespace prord::net {
namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHeadEnd = "\r\n\r\n";

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

/// Calls `on(name, value)` for each "Name: value" line of `block`;
/// false on a malformed line.
template <class On>
bool for_each_header(std::string_view block, On&& on) {
  while (!block.empty()) {
    const std::size_t eol = block.find(kCrlf);
    const std::string_view line = block.substr(0, eol);
    block.remove_prefix(eol == std::string_view::npos ? block.size()
                                                       : eol + kCrlf.size());
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    on(trim(line.substr(0, colon)), trim(line.substr(colon + 1)));
  }
  return true;
}

/// What the scanners read out of a header block.
struct Framing {
  std::optional<std::string_view> content_length;
  std::optional<std::string_view> connection;
};

bool scan_headers(std::string_view block, Framing& out) {
  return for_each_header(block, [&](std::string_view k, std::string_view v) {
    if (!out.content_length && iequals(k, "Content-Length"))
      out.content_length = v;
    else if (!out.connection && iequals(k, "Connection"))
      out.connection = v;
  });
}

/// HTTP/1.1 defaults to persistent; "Connection: close" opts out.
bool wants_keep_alive(const Framing& f, std::string_view version) {
  if (f.connection) {
    if (iequals(*f.connection, "close")) return false;
    if (iequals(*f.connection, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";
}

bool parse_size(std::string_view s, std::size_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && p == s.data() + s.size();
}

bool valid_method(std::string_view m) {
  if (m.empty() || m.size() > 16) return false;
  return std::all_of(m.begin(), m.end(),
                     [](char c) { return c >= 'A' && c <= 'Z'; });
}

/// Splits the head ending at `head_end` (the blank line's offset) into
/// its first line and the header lines after it, each kept with its CRLF.
void split_head(std::string_view avail, std::size_t head_end,
                std::string_view& first, std::string_view& headers) {
  const std::size_t eol = avail.find(kCrlf);  // <= head_end
  first = avail.substr(0, eol);
  headers = avail.substr(eol + kCrlf.size(), head_end - eol);
}

}  // namespace

std::optional<std::string_view> find_header(std::string_view block,
                                            std::string_view name) {
  std::optional<std::string_view> found;
  for_each_header(block, [&](std::string_view k, std::string_view v) {
    if (!found && iequals(k, name)) found = v;
  });
  return found;
}

char* ScanBuffer::room(std::size_t n) {
  if (begin_ > 0 && cap_ - end_ < n) {
    // One compaction per read, never per message.
    std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
    scan_ -= begin_;
    end_ -= begin_;
    begin_ = 0;
  }
  if (cap_ - end_ < n) {
    const std::size_t cap = std::max(end_ + n, 2 * cap_);
    std::unique_ptr<char[]> grown(new char[cap]);
    if (end_ > 0) std::memcpy(grown.get(), buf_.get(), end_);
    buf_ = std::move(grown);
    cap_ = cap;
  }
  return buf_.get() + end_;
}

ReadStatus ScanBuffer::read_from(int fd) {
  char* dst = room(kReadChunk);
  const std::size_t want = cap_ - end_;
  while (true) {
    const ssize_t n = ::recv(fd, dst, want, 0);
    if (n > 0) {
      end_ += static_cast<std::size_t>(n);
      return static_cast<std::size_t>(n) < want ? ReadStatus::kDrained
                                                : ReadStatus::kMore;
    }
    if (n == 0) return ReadStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::kDrained;
    return ReadStatus::kClosed;
  }
}

void ScanBuffer::append(std::string_view bytes) {
  if (bytes.empty()) return;
  std::memcpy(room(bytes.size()), bytes.data(), bytes.size());
  end_ += bytes.size();
}

std::optional<RequestView> RequestScanner::next() {
  if (failed()) return std::nullopt;
  if (body_skip_ > 0) {
    const std::size_t n = std::min(body_skip_, unscanned().size());
    scan_ += n;
    body_skip_ -= n;
    if (body_skip_ > 0) return std::nullopt;
  }
  const std::string_view avail = unscanned();
  const std::size_t head_end = avail.find(kHeadEnd);
  if (head_end == std::string_view::npos) {
    if (avail.size() > kMaxHeaderBytes) fail("header block too large");
    return std::nullopt;
  }
  RequestView req;
  req.raw = avail.substr(0, head_end + kHeadEnd.size());
  std::string_view request_line;
  split_head(avail, head_end, request_line, req.headers);

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    fail("malformed request line");
    return std::nullopt;
  }
  req.method = request_line.substr(0, sp1);
  req.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.version = trim(request_line.substr(sp2 + 1));
  if (!valid_method(req.method) || req.target.empty() ||
      !req.version.starts_with("HTTP/")) {
    fail("malformed request line");
    return std::nullopt;
  }
  Framing framing;
  if (!scan_headers(req.headers, framing)) {
    fail("malformed header line");
    return std::nullopt;
  }
  req.keep_alive = wants_keep_alive(framing, req.version);
  if (framing.content_length) {
    std::size_t n = 0;
    if (!parse_size(*framing.content_length, n) || n > kMaxBodyBytes) {
      fail("bad Content-Length");
      return std::nullopt;
    }
    body_skip_ = n;  // tolerated but discarded: the cluster serves GETs
  }
  scan_ += req.raw.size();
  return req;
}

std::optional<ResponseView> ResponseScanner::next() {
  if (failed()) return std::nullopt;
  const std::string_view avail = unscanned();
  const std::size_t head_end = avail.find(kHeadEnd);
  if (head_end == std::string_view::npos) {
    if (avail.size() > kMaxHeaderBytes) fail("header block too large");
    return std::nullopt;
  }
  ResponseView resp;
  std::string_view status_line;
  split_head(avail, head_end, status_line, resp.headers);

  const std::size_t sp1 = status_line.find(' ');
  if (!status_line.starts_with("HTTP/") || sp1 == std::string_view::npos ||
      sp1 + 4 > status_line.size()) {
    fail("malformed status line");
    return std::nullopt;
  }
  const std::string_view code = status_line.substr(sp1 + 1, 3);
  const auto [p, ec] =
      std::from_chars(code.data(), code.data() + code.size(), resp.status);
  if (ec != std::errc{} || p != code.data() + code.size() ||
      resp.status < 100 || resp.status > 599) {
    fail("malformed status code");
    return std::nullopt;
  }
  if (sp1 + 4 < status_line.size())
    resp.reason = trim(status_line.substr(sp1 + 5));

  Framing framing;
  if (!scan_headers(resp.headers, framing)) {
    fail("malformed header line");
    return std::nullopt;
  }
  resp.keep_alive = wants_keep_alive(framing, status_line.substr(0, sp1));
  std::size_t body = 0;
  if (framing.content_length &&
      (!parse_size(*framing.content_length, body) || body > kMaxBodyBytes)) {
    fail("bad Content-Length");
    return std::nullopt;
  }
  const std::size_t total = head_end + kHeadEnd.size() + body;
  if (avail.size() < total) return std::nullopt;  // body still arriving
  resp.raw = avail.substr(0, total);
  resp.body = avail.substr(head_end + kHeadEnd.size(), body);
  scan_ += total;
  return resp;
}

void append_request(std::string& out, std::string_view target,
                    std::string_view host, std::string_view extra_headers) {
  out.append("GET ").append(target).append(" HTTP/1.1\r\nHost: ");
  out.append(host).append("\r\n").append(extra_headers).append("\r\n");
}

std::string format_request(std::string_view target, std::string_view host,
                           std::string_view extra_headers) {
  std::string out;
  append_request(out, target, host, extra_headers);
  return out;
}

void append_response_start(std::string& out, int status,
                           std::string_view reason, std::size_t body_size) {
  char num[24];
  out.append("HTTP/1.1 ");
  out.append(num, std::to_chars(num, num + sizeof(num), status).ptr);
  out.append(" ").append(reason).append("\r\nContent-Length: ");
  out.append(num, std::to_chars(num, num + sizeof(num), body_size).ptr);
  out.append("\r\n");
}

std::string format_response(int status, std::string_view reason,
                            std::string_view body,
                            std::string_view extra_headers) {
  std::string out;
  out.reserve(96 + extra_headers.size() + body.size());
  append_response_start(out, status, reason, body.size());
  out.append(extra_headers).append("\r\n").append(body);
  return out;
}

}  // namespace prord::net
