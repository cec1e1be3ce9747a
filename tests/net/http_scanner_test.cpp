// HTTP/1.1 scanner unit tests: framing, keep-alive semantics, byte-at-a-
// time feeding, pipelining split at every offset, view lifetime, error
// latching, and the outbound queue the scanners' peers write through.
#include "net/http.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <memory>
#include <string>
#include <vector>

#include "net/socket.h"

namespace prord::net {
namespace {

TEST(RequestScanner, ParsesSimpleGet) {
  RequestScanner s;
  s.append("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n");
  const auto req = s.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/index.html");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->headers, "Host: x\r\n");
  EXPECT_EQ(req->raw, "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_TRUE(req->keep_alive);
  ASSERT_TRUE(req->header("host").has_value());
  EXPECT_EQ(*req->header("host"), "x");
  EXPECT_FALSE(req->header("missing").has_value());
  EXPECT_FALSE(s.next().has_value());
}

TEST(RequestScanner, ByteAtATime) {
  const std::string raw =
      "GET /a/b.gif HTTP/1.1\r\nHost: prord\r\nX-Test: 1\r\n\r\n";
  RequestScanner s;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    s.append(std::string_view(&raw[i], 1));
    ASSERT_FALSE(s.next().has_value()) << i;
  }
  s.append(std::string_view(&raw.back(), 1));
  const auto req = s.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(s.failed());
  EXPECT_EQ(req->target, "/a/b.gif");
  ASSERT_TRUE(req->header("x-test").has_value());
  EXPECT_EQ(*req->header("x-test"), "1");
}

TEST(RequestScanner, PipelinedRequests) {
  RequestScanner s;
  s.append("GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n");
  auto a = s.next();
  auto b = s.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->target, "/1");
  EXPECT_EQ(a->headers, "");
  EXPECT_EQ(b->target, "/2");
  EXPECT_FALSE(s.next().has_value());
}

TEST(RequestScanner, ConnectionCloseHonored) {
  RequestScanner s;
  s.append("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  const auto req = s.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->keep_alive);
}

TEST(RequestScanner, Http10DefaultsToClose) {
  RequestScanner s;
  s.append("GET / HTTP/1.0\r\n\r\n");
  const auto req = s.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->keep_alive);
}

TEST(RequestScanner, RejectsGarbageMethod) {
  RequestScanner s;
  s.append("get / HTTP/1.1\r\n\r\n");
  EXPECT_FALSE(s.next().has_value());
  EXPECT_TRUE(s.failed());
}

TEST(RequestScanner, RejectsMissingVersion) {
  RequestScanner s;
  s.append("GET /\r\n\r\n");
  EXPECT_FALSE(s.next().has_value());
  EXPECT_TRUE(s.failed());
}

TEST(RequestScanner, RejectsOversizedHeader) {
  RequestScanner s;
  std::string raw = "GET / HTTP/1.1\r\nX-Pad: ";
  raw.append(kMaxHeaderBytes, 'a');
  s.append(raw);
  EXPECT_FALSE(s.next().has_value());
  EXPECT_TRUE(s.failed());
  // The error latches: a well-formed request after it is never returned.
  s.append("\r\n\r\nGET / HTTP/1.1\r\n\r\n");
  EXPECT_FALSE(s.next().has_value());
  EXPECT_EQ(s.error(), "header block too large");
}

TEST(RequestScanner, RejectsBadContentLength) {
  RequestScanner s;
  s.append("POST /f HTTP/1.1\r\nContent-Length: 5x\r\n\r\nhello");
  EXPECT_FALSE(s.next().has_value());
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(s.error(), "bad Content-Length");
}

TEST(RequestScanner, SkipsContentLengthBody) {
  RequestScanner s;
  s.append(
      "POST /f HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /next "
      "HTTP/1.1\r\n\r\n");
  auto a = s.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->method, "POST");
  auto b = s.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->target, "/next");
}

TEST(ResponseScanner, FramesByContentLength) {
  ResponseScanner s;
  s.append("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody");
  const auto resp = s.next();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->reason, "OK");
  EXPECT_EQ(resp->headers, "Content-Length: 4\r\n");
  EXPECT_EQ(resp->body, "body");
  EXPECT_EQ(resp->raw, "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody");
}

TEST(ResponseScanner, SplitAcrossReads) {
  ResponseScanner s;
  s.append("HTTP/1.1 404 Not Fo");
  EXPECT_FALSE(s.next().has_value());
  s.append("und\r\nContent-Length: 2\r\n\r\nn");
  EXPECT_FALSE(s.next().has_value());
  s.append("o");
  const auto resp = s.next();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(resp->reason, "Not Found");
  EXPECT_EQ(resp->body, "no");
}

TEST(ResponseScanner, PipelinedResponses) {
  ResponseScanner s;
  s.append(
      "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\naHTTP/1.1 200 "
      "OK\r\nContent-Length: 1\r\n\r\nb");
  auto a = s.next();
  auto b = s.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->body, "a");
  EXPECT_EQ(b->body, "b");
}

TEST(ResponseScanner, RejectsBadStatus) {
  ResponseScanner s;
  s.append("HTTP/1.1 999 Huh\r\n\r\n");
  EXPECT_FALSE(s.next().has_value());
  EXPECT_TRUE(s.failed());
  s.append("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
  EXPECT_FALSE(s.next().has_value());  // latched
}

TEST(ResponseScanner, RejectsBadContentLength) {
  ResponseScanner s;
  s.append("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n");
  EXPECT_FALSE(s.next().has_value());
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(s.error(), "bad Content-Length");
}

TEST(ResponseScanner, RejectsOversizedHeader) {
  ResponseScanner s;
  std::string raw = "HTTP/1.1 200 OK\r\nX-Pad: ";
  raw.append(kMaxHeaderBytes, 'a');
  s.append(raw);
  EXPECT_FALSE(s.next().has_value());
  EXPECT_TRUE(s.failed());
}

// Each pipelined stream, cut into two reads at every byte offset, must
// yield exactly the messages the uncut stream yields.
TEST(Scanners, SplitAtEveryOffsetGivesIdenticalMessages) {
  const std::string requests =
      "GET /1 HTTP/1.1\r\nHost: a\r\n\r\n"
      "POST /p HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz"
      "GET /2 HTTP/1.1\r\nConnection: close\r\nX-A: b\r\n\r\n";
  const auto scan_requests = [](const std::vector<std::string_view>& parts) {
    RequestScanner s;
    std::vector<std::string> out;
    for (const std::string_view part : parts) {
      s.append(part);
      while (const auto req = s.next())
        out.push_back(std::string(req->method) + "|" +
                      std::string(req->target) + "|" +
                      std::string(req->headers) + "|" +
                      (req->keep_alive ? "ka" : "close"));
      s.consume();
    }
    EXPECT_FALSE(s.failed());
    return out;
  };
  const auto whole_requests = scan_requests({requests});
  ASSERT_EQ(whole_requests.size(), 3u);
  for (std::size_t cut = 0; cut <= requests.size(); ++cut) {
    const std::string_view all(requests);
    EXPECT_EQ(scan_requests({all.substr(0, cut), all.substr(cut)}),
              whole_requests)
        << cut;
  }

  const std::string responses =
      format_response(200, "OK", "first body", "X-Backend: 1\r\n") +
      format_response(404, "Not Found", "", "X-Cache: MISS\r\n") +
      format_response(200, "OK", std::string(300, 'z'));
  const auto scan_responses = [](const std::vector<std::string_view>& parts) {
    ResponseScanner s;
    std::vector<std::string> out;
    for (const std::string_view part : parts) {
      s.append(part);
      while (const auto resp = s.next()) out.emplace_back(resp->raw);
      s.consume();
    }
    EXPECT_FALSE(s.failed());
    return out;
  };
  const auto whole_responses = scan_responses({responses});
  ASSERT_EQ(whole_responses.size(), 3u);
  EXPECT_EQ(whole_responses[0] + whole_responses[1] + whole_responses[2],
            responses);
  for (std::size_t cut = 0; cut <= responses.size(); ++cut) {
    const std::string_view all(responses);
    EXPECT_EQ(scan_responses({all.substr(0, cut), all.substr(cut)}),
              whole_responses)
        << cut;
  }
}

// Views point into the scanner's buffer: later next() calls leave them
// intact, and only consume() (then a read that compacts) may move bytes.
TEST(Scanners, ViewsSurviveNextUntilConsume) {
  ResponseScanner s;
  std::string wire;
  for (int i = 0; i < 50; ++i)
    wire += format_response(200, "OK", "body" + std::to_string(i));
  s.append(wire);
  std::vector<ResponseView> views;
  while (const auto resp = s.next()) views.push_back(*resp);
  ASSERT_EQ(views.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(views[static_cast<std::size_t>(i)].body,
              "body" + std::to_string(i));
  s.consume();

  // A partial message stays buffered across consume(); growing the buffer
  // for the rest keeps it whole.
  const std::string big = format_response(200, "OK", std::string(200000, 'q'));
  s.append(std::string_view(big).substr(0, 100));
  EXPECT_FALSE(s.next().has_value());
  s.consume();
  s.append(std::string_view(big).substr(100));
  const auto resp = s.next();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->raw, big);
}

TEST(Scanners, ReadFromReportsShortReadsAndEof) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Fd a(sv[0]);
  Fd b(sv[1]);
  ASSERT_TRUE(set_nonblocking(a.get()));
  RequestScanner s;
  EXPECT_EQ(s.read_from(a.get()), ReadStatus::kDrained);  // EAGAIN
  const std::string wire = format_request("/x.html");
  ASSERT_EQ(::send(b.get(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  EXPECT_EQ(s.read_from(a.get()), ReadStatus::kDrained);  // short read
  const auto req = s.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/x.html");
  s.consume();
  b.reset();
  EXPECT_EQ(s.read_from(a.get()), ReadStatus::kClosed);
}

TEST(Formatters, RoundTrip) {
  ResponseScanner rs;
  rs.append(format_response(200, "OK", "payload", "X-Backend: 3\r\n"));
  const auto resp = rs.next();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "payload");
  ASSERT_TRUE(resp->header("x-backend").has_value());
  EXPECT_EQ(*resp->header("x-backend"), "3");

  RequestScanner qs;
  qs.append(format_request("/x.html"));
  const auto req = qs.next();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/x.html");
}

// The queue sends copied and shared segments in append order, joins small
// appends into one segment, and survives partial sends.
TEST(OutQueue, FlushesSegmentsInOrderAcrossPartialSends) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Fd a(sv[0]);
  Fd b(sv[1]);
  ASSERT_TRUE(set_nonblocking(a.get()));
  ASSERT_TRUE(set_nonblocking(b.get()));
  const auto shared = std::make_shared<const std::string>(300000, 's');
  OutQueue q;
  std::string expect;
  for (int i = 0; i < 20; ++i) {
    const std::string head = "head" + std::to_string(i) + ";";
    q.append(head);
    q.append_shared(shared);
    expect += head + *shared;
  }
  EXPECT_EQ(q.size(), expect.size());
  std::string got;
  char buf[65536];
  while (!q.empty() || got.size() < expect.size()) {
    ASSERT_TRUE(q.flush(a.get()));
    const ssize_t n = ::recv(b.get(), buf, sizeof(buf), 0);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(got.size(), expect.size());
  EXPECT_TRUE(got == expect);
  // Reused after draining: later appends still go out intact.
  q.append("tail");
  ASSERT_TRUE(q.flush(a.get()));
  const ssize_t n = ::recv(b.get(), buf, sizeof(buf), 0);
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n > 0 ? n : 0)),
            "tail");
}

}  // namespace
}  // namespace prord::net
