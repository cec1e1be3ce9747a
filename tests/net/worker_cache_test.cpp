// The worker's "disk" and cache, pinned against test-local references:
// SiteStore::make_payload must produce the bytes of the original
// byte-at-a-time loop for every file, and BackendWorker's LRU must hold
// exactly the files a plain list + map byte-LRU would, step by step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/backend_worker.h"
#include "net/live_cluster.h"
#include "net/site_store.h"
#include "trace/models.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace prord::net {
namespace {

/// The payload rule as first written: the URL (cut to the size), then
/// byte i is 'a' + id % 26 + i % 13, one byte at a time.
std::string reference_payload(const trace::FileTable& files,
                              trace::FileId id) {
  const std::size_t n = files.size_bytes(id);
  std::string body;
  const std::string& u = files.url(id);
  body.append(u, 0, std::min(u.size(), n));
  const char base = static_cast<char>('a' + (id % 26));
  while (body.size() < n)
    body.push_back(static_cast<char>(base + (body.size() % 13)));
  return body;
}

/// Every page and embedded object of the spec's site.
trace::FileTable site_table(const trace::WorkloadSpec& spec) {
  const trace::BuiltWorkload built = trace::build(spec);
  trace::FileTable files;
  for (const trace::Page& page : built.site.pages()) {
    files.intern(page.url, page.bytes);
    for (const trace::EmbeddedObject& obj : page.embedded)
      files.intern(obj.url, obj.bytes);
  }
  return files;
}

void expect_payloads_match(const trace::FileTable& files) {
  const SiteStore store(files);
  std::size_t mismatches = 0;
  for (trace::FileId id = 0; id < files.count(); ++id) {
    if (store.make_payload(id) == reference_payload(files, id)) continue;
    if (++mismatches <= 5)
      ADD_FAILURE() << "file " << id << " (" << files.url(id) << ", "
                    << files.size_bytes(id) << " bytes) differs";
  }
  EXPECT_EQ(mismatches, 0u) << "of " << files.count() << " files";
}

TEST(SitePayload, BytesMatchTheReferenceLoopOnBothSites) {
  for (const trace::WorkloadSpec& spec :
       {trace::synthetic_spec(), trace::cs_dept_spec()}) {
    const trace::FileTable files = site_table(spec);
    ASSERT_GT(files.count(), 1000u);
    expect_payloads_match(files);
  }
}

TEST(SitePayload, BytesMatchTheReferenceLoopAtEdgeSizes) {
  // Sizes around the URL length and around multiples of the pattern
  // period, over ids that cover all 26 filler bases.
  const std::uint32_t kSizes[] = {0,    1,    5,    8,    9,    10,  21,
                                  22,   23,   1663, 1664, 1665, 1672,
                                  1673, 1677, 3337, 9999, 70001};
  trace::FileTable files;
  std::uint32_t next = 0;
  for (int round = 0; round < 3; ++round)
    for (const std::uint32_t size : kSizes)
      files.intern("/f" + std::to_string(next++) + ".html", size);
  expect_payloads_match(files);
}

/// The worker cache's contract as a list + map byte-LRU: front = most
/// recent, evict from the back until the new payload fits, never cache a
/// payload larger than the capacity (0 = unbounded).
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity) {}

  bool contains(trace::FileId f) const { return index_.contains(f); }

  /// A hit refreshes; returns whether `f` was resident.
  bool touch(trace::FileId f) {
    const auto it = index_.find(f);
    if (it == index_.end()) return false;
    order_.splice(order_.begin(), order_, it->second.pos);
    return true;
  }

  void insert(trace::FileId f, std::uint64_t bytes) {
    if (capacity_ > 0 && bytes > capacity_) return;
    if (touch(f)) return;
    while (capacity_ > 0 && used_ + bytes > capacity_ && !order_.empty()) {
      const trace::FileId victim = order_.back();
      order_.pop_back();
      used_ -= index_.at(victim).bytes;
      index_.erase(victim);
    }
    order_.push_front(f);
    index_.emplace(f, Entry{bytes, order_.begin()});
    used_ += bytes;
  }

 private:
  struct Entry {
    std::uint64_t bytes;
    std::list<trace::FileId>::iterator pos;
  };
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::list<trace::FileId> order_;
  std::unordered_map<trace::FileId, Entry> index_;
};

TEST(WorkerCache, ResidencyMatchesAListMapLruStepByStep) {
  constexpr std::uint64_t kCapacity = 24'000;
  // 40 static files (a few larger than the whole capacity) and two
  // dynamic ones, which demand requests never cache but preload does.
  trace::FileTable files;
  util::Rng sizes(11);
  for (int i = 0; i < 40; ++i) {
    std::uint32_t bytes = 200 + static_cast<std::uint32_t>(
                                    sizes.below(7'801));
    if (i % 13 == 5) bytes = kCapacity + 1 + static_cast<std::uint32_t>(i);
    if (i == 7) bytes = kCapacity;  // fits exactly, evicting everything
    files.intern("/p" + std::to_string(i) + ".html", bytes);
  }
  files.intern("/cgi-bin/a.cgi", 3'000);
  files.intern("/cgi-bin/b.cgi", 30'000);
  const SiteStore store(files);
  ASSERT_TRUE(store.is_dynamic(files.lookup("/cgi-bin/a.cgi")));

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    BackendWorker worker(0, store, kCapacity);
    ASSERT_TRUE(worker.start());
    ReferenceLru model(kCapacity);
    util::Rng rng(seed);
    std::uint64_t demand = 0, preloads = 0, hits = 0;
    for (int step = 0; step < 600; ++step) {
      // Skewed choice so refreshes of resident files are common.
      const auto pick = [&] {
        const auto a = rng.below(files.count());
        const auto b = rng.below(files.count());
        return static_cast<trace::FileId>(std::min(a, b));
      };
      const trace::FileId f = pick();
      const std::uint64_t bytes = files.size_bytes(f);
      if (rng.below(3) == 0) {
        ++preloads;
        worker.preload(f, files.size_bytes(f), rng.below(2) == 1);
        if (!model.touch(f)) model.insert(f, bytes);
      } else {
        ++demand;
        const std::string body = http_get(worker.port(), files.url(f));
        ASSERT_EQ(body.size(), bytes) << "step " << step;
        if (!store.is_dynamic(f)) {
          hits += model.touch(f);
          model.insert(f, bytes);
        }
      }
      for (trace::FileId g = 0; g < files.count(); ++g)
        ASSERT_EQ(worker.caches(g), model.contains(g))
            << "seed " << seed << " step " << step << " file " << g;
    }
    worker.stop();
    EXPECT_EQ(worker.stats().cache_hits.load(), hits);
    EXPECT_GT(demand, 0u);
    EXPECT_GT(preloads, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(worker.stats().cache_misses.load(), 0u);
  }
}

TEST(WorkerCache, UnboundedCapacityKeepsEverythingButDynamicDemand) {
  trace::FileTable files;
  files.intern("/a.html", 5'000);
  files.intern("/b.gif", 200'000);
  files.intern("/c.cgi", 900);
  const SiteStore store(files);
  BackendWorker worker(0, store, /*cache_capacity=*/0);
  ASSERT_TRUE(worker.start());
  for (trace::FileId f = 0; f < files.count(); ++f)
    EXPECT_EQ(http_get(worker.port(), files.url(f)), store.make_payload(f));
  EXPECT_TRUE(worker.caches(0));
  EXPECT_TRUE(worker.caches(1));
  EXPECT_FALSE(worker.caches(2));
  EXPECT_FALSE(worker.caches(trace::kInvalidFile));
  worker.preload(2, 900, /*pinned=*/true);
  EXPECT_TRUE(worker.caches(2));
  worker.stop();
}

}  // namespace
}  // namespace prord::net
