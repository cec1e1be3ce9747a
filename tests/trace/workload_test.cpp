#include "trace/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "trace/generator.h"
#include "trace/models.h"

namespace prord::trace {
namespace {

LogRecord rec(sim::SimTime t, std::uint32_t client, std::string url,
              std::uint32_t bytes = 1000, std::uint16_t status = 200) {
  LogRecord r;
  r.time = t;
  r.client = client;
  r.url = std::move(url);
  r.bytes = bytes;
  r.status = status;
  return r;
}

TEST(FileTable, InternAssignsDenseIds) {
  FileTable t;
  EXPECT_EQ(t.intern("/a.html", 100), 0u);
  EXPECT_EQ(t.intern("/b.html", 200), 1u);
  EXPECT_EQ(t.intern("/a.html", 100), 0u);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_EQ(t.url(1), "/b.html");
  EXPECT_EQ(t.lookup("/a.html"), 0u);
  EXPECT_EQ(t.lookup("/zzz"), kInvalidFile);
}

TEST(FileTable, SizeIsMaxObserved) {
  FileTable t;
  const auto id = t.intern("/a.html", 100);
  t.intern("/a.html", 50);   // truncated transfer
  t.intern("/a.html", 300);  // full transfer
  EXPECT_EQ(t.size_bytes(id), 300u);
  EXPECT_EQ(t.total_bytes(), 300u);
}

TEST(FileTable, ClassIsTheUrlRuleInternedOnce) {
  const std::vector<std::string> urls{
      "/IMG/LOGO.GIF",        "/Style.CSS",           "/index.PHP",
      "/x/app.js?v=2",        "/page.php?id=3",       "/a.html?img=x.gif",
      "/b.html#top.css",      "/cgi-bin/form",        "/cgi-bin/counter.gif",
      "/cgi-bin/list.html",   "/CGI-BIN/form",        "/trailing.",
      "/cgi-bin/trailing.",   "/img.gif.",            "/noext",
      "/s1/p3.cgi",           "/dir.gif/page.html"};
  FileTable t;
  for (const std::string& url : urls) {
    const FileId id = t.intern(url, 100);
    const bool embedded = is_embedded_url(url);
    EXPECT_EQ(t.is_embedded(id), embedded) << url;
    EXPECT_EQ(t.is_dynamic(id), !embedded && is_dynamic_url(url)) << url;
    // Re-interning does not reclassify.
    EXPECT_EQ(t.intern(url, 50), id);
    EXPECT_EQ(t.is_embedded(id), embedded) << url;
  }
  const auto embedded = [&t](std::string_view u) {
    return t.is_embedded(t.lookup(u));
  };
  const auto dynamic = [&t](std::string_view u) {
    return t.is_dynamic(t.lookup(u));
  };
  EXPECT_TRUE(embedded("/IMG/LOGO.GIF"));
  EXPECT_TRUE(dynamic("/index.PHP"));
  EXPECT_TRUE(embedded("/x/app.js?v=2"));
  EXPECT_TRUE(dynamic("/page.php?id=3"));
  EXPECT_FALSE(embedded("/a.html?img=x.gif"));
  EXPECT_FALSE(dynamic("/a.html?img=x.gif"));
  EXPECT_FALSE(embedded("/b.html#top.css"));
  EXPECT_TRUE(dynamic("/cgi-bin/form"));
  // A hit-counter image under /cgi-bin/ is an embedded, static object.
  EXPECT_TRUE(embedded("/cgi-bin/counter.gif"));
  EXPECT_FALSE(dynamic("/cgi-bin/counter.gif"));
  EXPECT_TRUE(dynamic("/cgi-bin/list.html"));
  EXPECT_FALSE(dynamic("/CGI-BIN/form"));  // the path match is exact
  EXPECT_FALSE(embedded("/trailing."));
  EXPECT_FALSE(dynamic("/trailing."));
  EXPECT_TRUE(dynamic("/cgi-bin/trailing."));
  EXPECT_FALSE(embedded("/img.gif."));
  EXPECT_FALSE(embedded("/dir.gif/page.html"));
}

TEST(FileTable, LookupTakesAnyStringView) {
  FileTable t;
  const FileId a = t.intern("/a.html", 100);
  const FileId b = t.intern("/img/b.gif", 200);
  // A view into a larger buffer with no NUL after the view.
  const char raw[] = {'/', 'i', 'm', 'g', '/', 'b', '.', 'g', 'i',
                      'f', '/', 'a', '.', 'h', 't', 'm', 'l', 'X'};
  EXPECT_EQ(t.lookup(std::string_view(raw, 10)), b);
  EXPECT_EQ(t.lookup(std::string_view(raw + 10, 7)), a);
  EXPECT_EQ(t.lookup(std::string_view(raw + 10, 8)), kInvalidFile);
  EXPECT_EQ(t.lookup(std::string_view(raw, 9)), kInvalidFile);
  EXPECT_EQ(t.lookup(std::string_view(raw, sizeof raw)), kInvalidFile);
  EXPECT_EQ(t.lookup(""), kInvalidFile);
  EXPECT_EQ(t.lookup("/missing.html"), kInvalidFile);
  // intern() through a view finds the same entry.
  EXPECT_EQ(t.intern(std::string_view(raw + 10, 7), 300), a);
  EXPECT_EQ(t.size_bytes(a), 300u);
  EXPECT_EQ(t.count(), 2u);
}

TEST(FileTable, SeededTableKeepsItsIds) {
  FileTable seed;
  seed.intern("/train.html", 500);
  seed.intern("/cgi-bin/counter.gif", 40);
  seed.intern("/search.cgi", 900);
  std::vector<LogRecord> recs{rec(0, 0, "/new.html", 700),
                              rec(10, 0, "/cgi-bin/counter.gif", 60),
                              rec(20, 0, "/search.cgi", 800),
                              rec(30, 1, "/train.html", 400)};
  const auto w = build_workload(recs, {}, seed);
  ASSERT_EQ(w.files.count(), 4u);
  EXPECT_EQ(w.files.lookup("/train.html"), 0u);
  EXPECT_EQ(w.files.lookup("/cgi-bin/counter.gif"), 1u);
  EXPECT_EQ(w.files.lookup("/search.cgi"), 2u);
  EXPECT_EQ(w.files.lookup("/new.html"), 3u);
  EXPECT_EQ(w.files.size_bytes(0), 500u);  // max of seed and trace
  EXPECT_EQ(w.files.size_bytes(1), 60u);
  EXPECT_TRUE(w.files.is_embedded(1));
  EXPECT_FALSE(w.files.is_dynamic(1));
  EXPECT_TRUE(w.files.is_dynamic(2));
  ASSERT_EQ(w.requests.size(), 4u);
  EXPECT_EQ(w.requests[0].file, 3u);
  EXPECT_EQ(w.requests[1].file, 1u);
  EXPECT_TRUE(w.requests[1].is_embedded);
  EXPECT_FALSE(w.requests[1].is_dynamic);
  EXPECT_EQ(w.requests[1].parent_page, 3u);
  EXPECT_EQ(w.requests[2].file, 2u);
  EXPECT_TRUE(w.requests[2].is_dynamic);
  EXPECT_EQ(w.requests[3].file, 0u);
  // The seed itself is untouched (taken by value).
  EXPECT_EQ(seed.count(), 3u);
  EXPECT_EQ(seed.size_bytes(1), 40u);
}

TEST(IsEmbeddedUrl, ClassifiesByExtension) {
  EXPECT_TRUE(is_embedded_url("/img/logo.gif"));
  EXPECT_TRUE(is_embedded_url("/style.CSS"));
  EXPECT_TRUE(is_embedded_url("/x/app.js?v=2"));
  EXPECT_FALSE(is_embedded_url("/index.html"));
  EXPECT_FALSE(is_embedded_url("/cgi-bin/form"));
}

TEST(BuildWorkload, InternsAndPreservesOrder) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"), rec(10, 0, "/a.gif"),
                              rec(20, 1, "/b.html")};
  const auto w = build_workload(recs);
  ASSERT_EQ(w.requests.size(), 3u);
  EXPECT_EQ(w.files.count(), 3u);
  EXPECT_EQ(w.requests[0].at, 0);
  EXPECT_EQ(w.requests[2].at, 20);
  EXPECT_EQ(w.num_clients, 2u);
  EXPECT_EQ(w.num_main_pages, 2u);
}

TEST(BuildWorkload, EmbeddedAttributedToRecentPage) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"), rec(10, 0, "/x.gif"),
                              rec(20, 0, "/y.gif"), rec(30, 0, "/b.html"),
                              rec(40, 0, "/z.gif")};
  const auto w = build_workload(recs);
  const FileId a = w.files.lookup("/a.html");
  const FileId b = w.files.lookup("/b.html");
  EXPECT_FALSE(w.requests[0].is_embedded);
  EXPECT_TRUE(w.requests[1].is_embedded);
  EXPECT_EQ(w.requests[1].parent_page, a);
  EXPECT_EQ(w.requests[2].parent_page, a);
  EXPECT_EQ(w.requests[4].parent_page, b);
}

TEST(BuildWorkload, EmbeddedOutsideWindowUnattributed) {
  WorkloadOptions opt;
  opt.bundle_window = sim::sec(1.0);
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"),
                              rec(sim::sec(5.0), 0, "/x.gif")};
  const auto w = build_workload(recs, opt);
  EXPECT_EQ(w.requests[1].parent_page, kInvalidFile);
}

TEST(BuildWorkload, OrphanEmbeddedHasNoParent) {
  std::vector<LogRecord> recs{rec(0, 0, "/x.gif")};
  const auto w = build_workload(recs);
  EXPECT_TRUE(w.requests[0].is_embedded);
  EXPECT_EQ(w.requests[0].parent_page, kInvalidFile);
}

TEST(BuildWorkload, KeepaliveSplitsConnections) {
  WorkloadOptions opt;
  opt.keepalive_timeout = sim::sec(15.0);
  std::vector<LogRecord> recs{
      rec(0, 0, "/a.html"), rec(sim::sec(5.0), 0, "/b.html"),
      rec(sim::sec(30.0), 0, "/c.html"),  // 25s gap: new connection
      rec(sim::sec(31.0), 1, "/d.html")};
  const auto w = build_workload(recs, opt);
  EXPECT_EQ(w.requests[0].conn, w.requests[1].conn);
  EXPECT_NE(w.requests[1].conn, w.requests[2].conn);
  EXPECT_NE(w.requests[2].conn, w.requests[3].conn);
  EXPECT_EQ(w.num_connections, 3u);
  EXPECT_TRUE(w.requests[0].starts_connection);
  EXPECT_FALSE(w.requests[1].starts_connection);
  EXPECT_TRUE(w.requests[2].starts_connection);
}

TEST(BuildWorkload, ErrorsDroppedByDefault) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html"),
                              rec(10, 0, "/missing.html", 0, 404)};
  EXPECT_EQ(build_workload(recs).requests.size(), 1u);
  WorkloadOptions opt;
  opt.keep_errors = true;
  EXPECT_EQ(build_workload(recs, opt).requests.size(), 2u);
}

TEST(BuildWorkload, RejectsUnsortedInput) {
  std::vector<LogRecord> recs{rec(100, 0, "/a.html"), rec(0, 0, "/b.html")};
  EXPECT_THROW(build_workload(recs), std::invalid_argument);
}

TEST(BuildWorkload, RedirectWithDashBytesDropped) {
  std::vector<LogRecord> recs{rec(0, 0, "/a.html", 0, 304)};
  const auto w = build_workload(recs);
  EXPECT_TRUE(w.requests.empty());
}

TEST(BuildWorkload, GeneratedTraceEndToEnd) {
  SiteBuildParams sp;
  sp.sections = 3;
  sp.pages_per_section = 12;
  sp.seed = 3;
  const auto site = build_site(sp);
  TraceGenParams gp;
  gp.target_requests = 4000;
  gp.duration_sec = 400;
  gp.seed = 8;
  const auto t = generate_trace(site, gp);
  const auto w = build_workload(t.records);

  EXPECT_EQ(w.requests.size(), t.records.size());
  EXPECT_GT(w.num_connections, 0u);
  EXPECT_GT(w.num_main_pages, 0u);
  // Every embedded request generated by the site model should classify as
  // embedded via its URL extension.
  std::size_t embedded = 0;
  for (const auto& r : w.requests) embedded += r.is_embedded;
  EXPECT_GT(embedded, w.requests.size() / 3);
  // Conservation: main + embedded = all.
  EXPECT_EQ(w.num_main_pages + embedded, w.requests.size());
  // Connections are contiguous per client and ids dense.
  std::set<std::uint32_t> conns;
  for (const auto& r : w.requests) conns.insert(r.conn);
  EXPECT_EQ(conns.size(), w.num_connections);
}

}  // namespace
}  // namespace prord::trace
