// PredictionService unit tests: in-place feeds, the feed-clock pass
// cadence, link lifecycle, and warm-start seeding (docs/PREDICTOR.md).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "logmining/mining_model.h"
#include "predict/prediction_service.h"
#include "predict/predictor_iface.h"

namespace prord::predict {
namespace {

using trace::FileId;

Observation obs(std::uint32_t conn, FileId file, bool main_page = true,
                std::int64_t t_us = 0) {
  Observation o;
  o.conn = conn;
  o.file = file;
  o.main_page = main_page;
  o.t_us = t_us;
  return o;
}

PredictorParams graph_params() {
  PredictorParams p;
  p.algo = Algo::kPrordGraph;
  return p;
}

TEST(PredictionService, SyncGraphFeedIsImmediatelyVisible) {
  auto service = make_prediction_service(graph_params());
  auto link = service->register_link();

  // Walk 1 -> 2 -> 3 on one connection, repeatedly: the graph learns the
  // chain and associations({1}) must answer without any periodic pass.
  for (int round = 0; round < 8; ++round)
    for (FileId f : {FileId{1}, FileId{2}, FileId{3}}) link->feed(obs(7, f));

  const std::vector<FileId> context{1};
  const auto all = link->associations(context, 4);
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().file, 2u);
  EXPECT_GT(all.front().confidence, 0.4);
  EXPECT_EQ(service->stats().mine_passes, 0u);
}

TEST(PredictionService, SyncFeedSkipsEmbeddedObjects) {
  auto service = make_prediction_service(graph_params());
  auto link = service->register_link();
  for (int round = 0; round < 8; ++round) {
    link->feed(obs(1, 10));
    link->feed(obs(1, 99, /*main_page=*/false));  // ignored
    link->feed(obs(1, 11));
  }
  const std::vector<FileId> context{10};
  const auto all = link->associations(context, 4);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.front().file, 11u);  // 99 never entered the graph
}

TEST(PredictionService, MinePassRunsWhenFeedClockCrossesInterval) {
  PredictorParams p;
  p.algo = Algo::kMithril;
  p.min_support = 2;
  p.mine_interval_us = 1'000;
  auto service = make_prediction_service(p);
  auto link = service->register_link();
  const std::vector<FileId> context{20};

  // Banded pair 20 -> 21, fed before the first boundary: counted, but not
  // promoted, because no pass has run.
  for (std::uint32_t conn = 0; conn < 6; ++conn) {
    link->feed(obs(conn, 20, true, 100 * conn));
    link->feed(obs(conn, 21, true, 100 * conn + 50));
  }
  EXPECT_EQ(service->stats().mine_passes, 0u);
  EXPECT_TRUE(link->associations(context, 4).empty());

  // The first feed at t_us >= 1000 runs exactly one pass, which promotes.
  link->feed(obs(99, 5, true, 1'000));
  EXPECT_EQ(service->stats().mine_passes, 1u);
  const auto all = link->associations(context, 4);
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().file, 21u);

  // More feeds inside the same interval run no pass; a jump across several
  // intervals runs one, and the next boundary follows the jump.
  link->feed(obs(99, 6, true, 1'999));
  EXPECT_EQ(service->stats().mine_passes, 1u);
  link->feed(obs(99, 7, true, 5'500));
  EXPECT_EQ(service->stats().mine_passes, 2u);
  link->feed(obs(99, 8, true, 5'999));
  EXPECT_EQ(service->stats().mine_passes, 2u);
  link->feed(obs(99, 9, true, 6'000));
  EXPECT_EQ(service->stats().mine_passes, 3u);
  EXPECT_EQ(service->stats().feeds, 17u);
}

TEST(PredictionService, StartStopAreNoOps) {
  PredictorParams p;
  p.algo = Algo::kMithril;
  p.mine_interval_us = 1'000;
  auto service = make_prediction_service(p);
  auto link = service->register_link();
  service->start();
  for (std::uint32_t i = 0; i < 100; ++i) link->feed(obs(1, i % 5, true, i));
  service->stop();
  // Feeding after stop() still applies: there is nothing to stop.
  link->feed(obs(1, 0, true, 100));
  const auto stats = service->stats();
  EXPECT_EQ(stats.feeds, 101u);
  EXPECT_EQ(stats.mine_passes, 0u);
}

TEST(PredictionService, DroppedLinkUnregisters) {
  auto service = make_prediction_service(graph_params());
  auto a = service->register_link();
  auto b = service->register_link();
  EXPECT_EQ(service->stats().links, 2u);
  a.reset();
  EXPECT_EQ(service->stats().links, 1u);
  b.reset();
  EXPECT_EQ(service->stats().links, 0u);
}

TEST(PredictionService, WarmStartSeedsGraphBackend) {
  // Offline-mined model: sessions walking 5 -> 6 repeatedly.
  std::vector<trace::Request> history;
  for (int s = 0; s < 12; ++s) {
    trace::Request a;
    a.client = static_cast<std::uint32_t>(s);
    a.file = 5;
    a.at = sim::sec(s * 100.0);
    history.push_back(a);
    trace::Request b = a;
    b.file = 6;
    b.at = a.at + sim::sec(1.0);
    history.push_back(b);
  }
  logmining::MiningConfig config;
  config.predictor = logmining::PredictorKind::kCandidatePath;
  config.predictor_order = 2;
  auto model = std::make_shared<logmining::MiningModel>(
      std::span<const trace::Request>(history), config);
  const std::size_t entries_before = model->predictor().num_entries();

  auto service = make_prediction_service(graph_params(), model);
  auto link = service->register_link();

  // The warm-start state must answer before any feed.
  const std::vector<FileId> context{5};
  const auto all = link->associations(context, 1);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.front().file, 6u);

  // The service learns on its own copy: the caller's model never moves.
  for (int round = 0; round < 8; ++round)
    for (FileId f : {FileId{40}, FileId{41}}) link->feed(obs(3, f));
  EXPECT_EQ(model->predictor().num_entries(), entries_before);
}

TEST(PredictionService, MithrilSyncLearnsAssociations) {
  PredictorParams p;
  p.algo = Algo::kMithril;
  p.min_support = 2;
  auto service = make_prediction_service(p);
  auto link = service->register_link();

  for (std::uint32_t conn = 0; conn < 6; ++conn) {
    link->feed(obs(conn, 20));
    link->feed(obs(conn, 21));
  }
  // Mithril needs a periodic pass to promote: feed across the boundary.
  link->feed(obs(99, 1, true, p.mine_interval_us));

  const std::vector<FileId> context{20};
  const auto all = link->associations(context, 1);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.front().file, 21u);
  EXPECT_GT(all.front().confidence, 0.4);
}

TEST(PredictionService, AlgoNames) {
  EXPECT_STREQ(algo_name(Algo::kPrordGraph), "prord-graph");
  EXPECT_STREQ(algo_name(Algo::kMithril), "mithril");
}

}  // namespace
}  // namespace prord::predict
