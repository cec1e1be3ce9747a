// Concurrency torture for the PredictionService: producers feeding
// through per-thread links (crossing the pass interval on their feed
// clocks) while readers pull associations and links register and drop
// mid-flight. Run under TSan in CI (docs/PREDICTOR.md "Threading"); the
// assertions here pin the accounting, TSan pins the absence of races.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "predict/predictor_iface.h"

namespace prord::predict {
namespace {

using trace::FileId;

Observation obs(std::uint32_t conn, FileId file, std::int64_t t_us) {
  Observation o;
  o.conn = conn;
  o.file = file;
  o.t_us = t_us;
  return o;
}

PredictorParams torture_params(Algo algo) {
  PredictorParams p;
  p.algo = algo;
  p.mine_interval_us = 500;  // a pass every 500 feed-clock microseconds
  p.record_table_rows = 64;
  p.mining_table_rows = 512;
  p.prefetch_table_rows = 64;
  return p;
}

class ServiceConcurrencyTest : public ::testing::TestWithParam<Algo> {};

TEST_P(ServiceConcurrencyTest, FeedUnderConcurrentMine) {
  constexpr int kProducers = 4;
  constexpr std::uint32_t kFeedsPerProducer = 20'000;

  auto service = make_prediction_service(torture_params(GetParam()));

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      auto link = service->register_link();
      for (std::uint32_t i = 0; i < kFeedsPerProducer; ++i) {
        const std::uint32_t conn = static_cast<std::uint32_t>(t) * 8 + i % 8;
        link->feed(obs(conn, i % 97, i));
        // Query from the producer thread too.
        if (i % 64 == 0) {
          const FileId context[] = {i % 97};
          (void)link->associations(context, 2);
        }
      }
    });
  }

  // A reader hammering the working state through its own link.
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    auto link = service->register_link();
    std::uint32_t i = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      const FileId context[] = {i++ % 97};
      (void)link->associations(context, 4);
      (void)service->stats();
    }
  });

  // Links churning: register, feed once and drop while the others run.
  std::atomic<bool> stop_churn{false};
  std::atomic<std::uint64_t> churn_feeds{0};
  std::thread churner([&] {
    std::uint32_t n = 0;
    while (!stop_churn.load(std::memory_order_acquire)) {
      auto link = service->register_link();
      link->feed(obs(1000 + n % 4, n % 97, 0));
      ++n;
      churn_feeds.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (auto& p : producers) p.join();
  stop_churn.store(true, std::memory_order_release);
  churner.join();
  stop_reader.store(true, std::memory_order_release);
  reader.join();

  const auto stats = service->stats();
  // Every feed was applied and counted exactly once.
  EXPECT_EQ(stats.feeds,
            static_cast<std::uint64_t>(kProducers) * kFeedsPerProducer +
                churn_feeds.load());
  // The feed clocks cross the pass interval (how many passes run depends
  // on how the producers interleave; at most one per boundary).
  EXPECT_GT(stats.mine_passes, 0u);
  EXPECT_LE(stats.mine_passes, kFeedsPerProducer / 500);
  EXPECT_EQ(stats.links, 0u);

  // Bounded tables stayed bounded under the torture.
  const auto& params = service->params();
  EXPECT_LE(stats.record_rows, params.record_table_rows);
  if (GetParam() == Algo::kMithril) {
    EXPECT_LE(stats.prefetch_rows, params.prefetch_table_rows);
  }
}

TEST_P(ServiceConcurrencyTest, RegisterUnregisterRace) {
  auto service = make_prediction_service(torture_params(GetParam()));

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRoundsPerThread; ++i) {
        auto link = service->register_link();
        link->feed(obs(static_cast<std::uint32_t>(t), i % 31, i));
        if (i % 3 == 0) {
          const FileId context[] = {static_cast<FileId>(i % 31)};
          (void)link->associations(context, 1);
        }
        // shared_ptr dropped: unregisters while other threads feed
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = service->stats();
  EXPECT_EQ(stats.links, 0u);
  EXPECT_EQ(stats.feeds,
            static_cast<std::uint64_t>(kThreads) * kRoundsPerThread);
}

TEST_P(ServiceConcurrencyTest, StopWhileFeeding) {
  auto service = make_prediction_service(torture_params(GetParam()));
  service->start();
  auto link = service->register_link();
  std::thread feeder([&] {
    for (std::uint32_t i = 0; i < 50'000; ++i) link->feed(obs(1, i % 13, i));
  });
  service->stop();  // a no-op: feeds keep applying
  feeder.join();
  EXPECT_EQ(service->stats().feeds, 50'000u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceConcurrencyTest,
                         ::testing::Values(Algo::kPrordGraph, Algo::kMithril),
                         [](const auto& info) {
                           return info.param == Algo::kPrordGraph
                                      ? "PrordGraph"
                                      : "Mithril";
                         });

}  // namespace
}  // namespace prord::predict
