// Concurrency torture for the LoadGossipBoard seqlock: N writer threads
// (one per slot, matching the one-writer-per-slot contract) publishing as
// fast as they can while reader threads continuously read() and
// merged_external(). The assertions check the seqlock's actual promise —
// every successful read observes a snapshot some writer really published,
// never a torn mix of two — and the whole test must run clean under
// ThreadSanitizer (CI builds the suite with -fsanitize=thread; the
// atomic-word payload is what makes that possible).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "scale/load_gossip.h"

namespace prord::scale {
namespace {

// Derive every word of a snapshot from (shard, version) so a reader can
// verify integrity: any torn read mixes two versions and breaks the
// relation between version and the derived fields.
ShardLoadSnapshot derived_snapshot(std::uint32_t shard, std::uint64_t version,
                                   std::uint32_t backends) {
  ShardLoadSnapshot snap;
  snap.shard = shard;
  snap.backends = backends;
  snap.version = version;
  snap.published_us = static_cast<std::int64_t>(version * 3 + shard);
  for (std::uint32_t b = 0; b < backends; ++b)
    snap.inflight[b] = static_cast<std::uint32_t>(version + shard * 1000 + b);
  snap.routed = version * 7;
  snap.dispatches = version * 5;
  snap.handoffs = version * 2;
  snap.forwards = version;
  return snap;
}

::testing::AssertionResult snapshot_consistent(const ShardLoadSnapshot& s) {
  const ShardLoadSnapshot want =
      derived_snapshot(s.shard, s.version, s.backends);
  if (s.published_us != want.published_us)
    return ::testing::AssertionFailure()
           << "published_us torn: shard " << s.shard << " v" << s.version;
  for (std::uint32_t b = 0; b < s.backends; ++b) {
    if (s.inflight[b] != want.inflight[b])
      return ::testing::AssertionFailure()
             << "inflight[" << b << "] torn: shard " << s.shard << " v"
             << s.version << " got " << s.inflight[b] << " want "
             << want.inflight[b];
  }
  if (s.routed != want.routed || s.dispatches != want.dispatches ||
      s.handoffs != want.handoffs || s.forwards != want.forwards)
    return ::testing::AssertionFailure()
           << "counters torn: shard " << s.shard << " v" << s.version;
  return ::testing::AssertionSuccess();
}

TEST(GossipTorture, ConcurrentPublishReadMerge) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint32_t kBackends = 8;
  constexpr std::uint64_t kPublishes = 20'000;
  LoadGossipBoard board(kShards);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_ok{0};
  std::atomic<std::uint64_t> reads_failed{0};
  std::atomic<bool> corrupt{false};
  // The writers finish within a few milliseconds. They wait until the
  // readers and the merger run, so that reads overlap publishes even on a
  // host too busy to schedule the reader threads at once.
  constexpr int kReaders = 3;
  constexpr int kObservers = kReaders + 1;
  std::atomic<int> started{0};
  // Halfway through, each writer stops at a quiet point until every
  // reader has completed one successful read(). A paused writer's slot
  // cannot tear, so each reader gets its read while the other writers may
  // still be publishing, however the threads are scheduled.
  std::atomic<int> readers_with_read{0};

  std::vector<std::thread> writers;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&board, &started, &readers_with_read, s] {
      while (started.load(std::memory_order_acquire) < kObservers)
        std::this_thread::yield();
      for (std::uint64_t v = 1; v <= kPublishes; ++v) {
        board.publish(s, derived_snapshot(s, v, kBackends));
        if (v == kPublishes / 2) {
          while (readers_with_read.load(std::memory_order_acquire) < kReaders)
            std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1, std::memory_order_release);
      ShardLoadSnapshot out;
      std::uint64_t last_version[kShards] = {0};
      bool had_read = false;
      while (!stop.load(std::memory_order_acquire)) {
        for (std::uint32_t s = 0; s < kShards; ++s) {
          if (!board.read(s, out)) {
            reads_failed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          reads_ok.fetch_add(1, std::memory_order_relaxed);
          if (!had_read) {
            had_read = true;
            readers_with_read.fetch_add(1, std::memory_order_release);
          }
          if (!snapshot_consistent(out) || out.shard != s ||
              out.version < last_version[s] || out.version > kPublishes) {
            corrupt.store(true, std::memory_order_release);
            return;
          }
          last_version[s] = out.version;  // versions never go backwards
        }
      }
    });
  }

  // A merger thread exercises the full read-all-and-sum path concurrently.
  std::thread merger([&] {
    started.fetch_add(1, std::memory_order_release);
    const GossipOptions opts{.interval_us = 1, .staleness_us = 1'000'000'000};
    while (!stop.load(std::memory_order_acquire)) {
      std::uint32_t torn = 0;
      const auto ext =
          board.merged_external(0, kBackends, /*now_us=*/0, opts, &torn);
      // With a huge staleness horizon every readable peer contributes its
      // raw inflight; backend 1's external load always exceeds backend
      // 0's by exactly the number of merged peers (inflight[b] = v +
      // 1000*s + b). We can't know v, but the invariant ext[1] >= ext[0]
      // holds for every subset of consistent snapshots.
      if (ext[1] < ext[0]) {
        corrupt.store(true, std::memory_order_release);
        return;
      }
    }
  });

  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  merger.join();

  EXPECT_FALSE(corrupt.load()) << "torn or regressed snapshot observed";
  // Bounded-retry reads are ALLOWED to fail under contention (on an
  // oversubscribed host a descheduled reader can lose many rounds in a
  // row), but successful reads must never be torn. The writers' midway
  // pause guarantees every reader at least one success while publishing
  // is still in progress.
  EXPECT_GE(reads_ok.load(), static_cast<std::uint64_t>(kReaders));
  (void)reads_failed;

  // Quiescent state: the final snapshot of every slot is the last publish.
  ShardLoadSnapshot out;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(board.read(s, out));
    EXPECT_EQ(out.version, kPublishes);
    EXPECT_TRUE(snapshot_consistent(out));
  }
}

}  // namespace
}  // namespace prord::scale
