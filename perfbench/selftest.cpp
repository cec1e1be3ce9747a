// Self-tests for the benchmark's own code: the percentile rule, the
// open-loop schedule, latency timed from the due time, and the client's
// output checks against a scripted loopback server.
//
//   python3 perfbench/run.py --selftest
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "schedule.h"
#include "stats.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++g_failures;                                                  \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
    }                                                                \
  } while (0)

// --- The percentile rule. ---------------------------------------------------

void test_percentile_rule() {
  CHECK(!supports(999, 0.99));  // only 9 samples beyond the 99th
  CHECK(supports(1000, 0.99));
  CHECK(!supports(19, 0.5));
  CHECK(supports(20, 0.5));
  CHECK(tail_percentile(0) == 0.0);
  CHECK(tail_percentile(19) == 0.0);
  CHECK(tail_percentile(20) == 0.5);
  CHECK(tail_percentile(100) == 0.9);
  CHECK(tail_percentile(1000) == 0.99);
  CHECK(tail_percentile(9999) == 0.99);
  CHECK(tail_percentile(10000) == 0.999);
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(percentile(v, 0.5) == 50.0);
  CHECK(percentile(v, 0.99) == 99.0);
  CHECK(percentile(v, 1.0) == 100.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(percentile({}, 0.5) == 0.0);
}

// --- The open-loop schedule. ------------------------------------------------

void test_schedule() {
  const auto a = poisson_schedule(7, 2, 10000.0, 1.0);
  const auto b = poisson_schedule(7, 2, 10000.0, 1.0);
  CHECK(a == b);  // same seed, same offered load
  CHECK(a != poisson_schedule(8, 2, 10000.0, 1.0));
  CHECK(a != poisson_schedule(7, 3, 10000.0, 1.0));
  // Poisson count: 10000 +- 5 sigma (sigma = 100).
  CHECK(a.size() > 9500 && a.size() < 10500);
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] >= a[i - 1];
  CHECK(ascending);
  CHECK(!a.empty() && a.front() >= 0 && a.back() < 1'000'000'000);
  CHECK(poisson_schedule(1, 0, 0.0, 1.0).empty());
}

// --- A scripted loopback server. --------------------------------------------

enum class Reply { kCorrect, kWrongBody, kStatus500, kCloseSilently };

/// Serves GET /f<N> with body "payload-<N>" unless `script` (called with
/// the 0-based request index across the run) says otherwise. The reply to
/// request `swap_pair` is held back and sent after the next one's.
class ScriptedServer {
 public:
  ScriptedServer(std::function<Reply(int)> script, int swap_pair = -1)
      : script_(std::move(script)), swap_pair_(swap_pair) {
    listen_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(listen_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_, 16);
    socklen_t len = sizeof addr;
    ::getsockname(listen_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }
  ~ScriptedServer() {
    stop_ = true;
    thread_.join();
    for (const Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    ::close(listen_);
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;
  std::uint16_t port() const { return port_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::vector<std::string> held;  // a reply waiting for its swap partner
  };

  static std::string response(int status, const std::string& body) {
    return "HTTP/1.1 " + std::to_string(status) + " X\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  void serve(Conn& c) {
    std::size_t end;
    while ((end = c.in.find("\r\n\r\n")) != std::string::npos) {
      const std::string head = c.in.substr(0, end);
      c.in.erase(0, end + 4);
      const std::size_t sp = head.find(' ');
      const std::string url = head.substr(sp + 1, head.find(' ', sp + 1) - sp - 1);
      const int index = next_index_++;
      const std::string body = "payload-" + url.substr(2);
      std::string out;
      switch (script_(index)) {
        case Reply::kCorrect: out = response(200, body); break;
        case Reply::kWrongBody: out = response(200, body + "!"); break;
        case Reply::kStatus500: out = response(500, body); break;
        case Reply::kCloseSilently:
          ::close(c.fd);
          c.fd = -1;
          return;
      }
      if (index == swap_pair_) {
        c.held.push_back(out);
        continue;
      }
      (void)!::write(c.fd, out.data(), out.size());
      for (const std::string& h : c.held)
        (void)!::write(c.fd, h.data(), h.size());
      c.held.clear();
    }
  }

  void loop() {
    while (!stop_) {
      std::vector<pollfd> fds{{listen_, POLLIN, 0}};
      for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      if (fds[0].revents & POLLIN) {
        const int fd = ::accept(listen_, nullptr, nullptr);
        if (fd >= 0) conns_.push_back({fd, {}, {}});
      }
      for (std::size_t i = 1; i < fds.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP))) continue;
        Conn& c = conns_[i - 1];
        if (c.fd < 0) continue;
        char buf[4096];
        const ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n <= 0) {
          ::close(c.fd);
          c.fd = -1;
          continue;
        }
        c.in.append(buf, static_cast<std::size_t>(n));
        serve(c);
      }
      std::erase_if(conns_, [](const Conn& c) { return c.fd < 0; });
    }
  }

  std::function<Reply(int)> script_;
  const int swap_pair_;
  int listen_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Conn> conns_;
  int next_index_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

SiteView small_site(int files) {
  SiteView site;
  for (int f = 0; f < files; ++f) {
    site.urls.push_back("/f" + std::to_string(f));
    site.payloads.push_back("payload-" + std::to_string(f));
  }
  return site;
}

/// `count` requests for files 0..count-1 on one channel, 1 ms apart.
StepPlan plan_of(int count) {
  StepPlan plan;
  for (int i = 0; i < count; ++i) {
    plan.due_ns.push_back(static_cast<std::int64_t>(i) * 1'000'000);
    plan.sends.push_back({static_cast<std::uint32_t>(i), 0});
  }
  plan.drain_timeout_ns = 500'000'000;
  return plan;
}

// --- Latency from the due time. ---------------------------------------------

void test_latency_from_due() {
  const SiteView site = small_site(20);
  ScriptedServer server([](int) { return Reply::kCorrect; });
  OpenLoopClient client(site, server.port(), 1);
  CHECK(client.connect());
  StepPlan plan = plan_of(20);
  // The step started 50 ms ago: every request is already late when the
  // client first looks, as if the client had stalled. The stall must be
  // charged to the requests, not hidden by timing from the send.
  plan.start_ns = now_ns() - 50'000'000;
  const StepResult r = client.run(plan);
  CHECK(r.issued == 20 && r.ok == 20 && r.failed == 0);
  CHECK(r.lag_us.size() == 20 && r.latency_us.size() == 20);
  bool late = true, charged = true;
  for (std::size_t i = 0; i < r.lag_us.size(); ++i) {
    late &= r.lag_us[i] >= 30'000.0;  // due at 0..19 ms, sent at >= 50 ms
    charged &= r.latency_us[i] >= r.lag_us[i];
  }
  CHECK(late);
  CHECK(charged);
  CHECK(percentile(r.latency_us, 0.5) >= 30'000.0);

  // On schedule, the same server answers well inside the lag above.
  StepPlan on_time = plan_of(20);
  const StepResult s = client.run(on_time);
  CHECK(s.ok == 20);
  CHECK(percentile(s.lag_us, 0.5) < 5'000.0);
}

// --- Output checks count as failures. ---------------------------------------

void test_wrong_body_fails() {
  const SiteView site = small_site(10);
  ScriptedServer server([](int i) {
    return i == 3 ? Reply::kWrongBody : i == 6 ? Reply::kStatus500
                                               : Reply::kCorrect;
  });
  OpenLoopClient client(site, server.port(), 1);
  CHECK(client.connect());
  const StepResult r = client.run(plan_of(10));
  CHECK(r.issued == 10);
  CHECK(r.wrong_body == 1);
  CHECK(r.bad_status == 1);
  CHECK(r.ok == 8 && r.failed == 2);
  CHECK(r.conserved());
  CHECK(r.latency_us.size() == 8);  // failures carry no latency sample
}

void test_misordered_fails() {
  const SiteView site = small_site(6);
  // Request 2's reply is held back and sent after request 3's.
  ScriptedServer server([](int) { return Reply::kCorrect; }, 2);
  OpenLoopClient client(site, server.port(), 1);
  CHECK(client.connect());
  StepPlan plan = plan_of(6);
  plan.due_ns.assign(6, 0);  // pipelined: all six outstanding at once
  const StepResult r = client.run(plan);
  // Request 2 receives request 3's body (pending on the channel:
  // misordered); request 3 then receives 2's, which no pending request
  // expects any more (a wrong body).
  CHECK(r.misordered == 1 && r.wrong_body == 1);
  CHECK(r.ok == 4 && r.failed == 2);
  CHECK(r.conserved());
}

void test_dropped_response_fails() {
  const SiteView site = small_site(10);
  // The server hangs up on request 4 without answering; requests sent
  // after that find the channel gone until the next step reconnects it.
  ScriptedServer server([](int i) {
    return i == 4 ? Reply::kCloseSilently : Reply::kCorrect;
  });
  OpenLoopClient client(site, server.port(), 1);
  CHECK(client.connect());
  const StepResult r = client.run(plan_of(10));
  CHECK(r.issued == 10);
  CHECK(r.ok == 4);
  CHECK(r.failed == 6);
  CHECK(r.dropped + r.refused == 6 && r.dropped >= 1);
  CHECK(r.conserved());
  // The next step reconnects and is clean again.
  StepPlan again;
  again.due_ns = {0};
  again.sends = {{1, 0}};
  const StepResult s = client.run(again);
  CHECK(s.ok == 1 && s.failed == 0);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_schedule();
  test_latency_from_due();
  test_wrong_body_fails();
  test_misordered_fails();
  test_dropped_response_fails();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
