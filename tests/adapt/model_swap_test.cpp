// ModelSwap: double-buffered publication. The load-bearing property is
// that a reader can never observe a torn model — every snapshot it takes
// is one immutable (epoch, model) pair, valid for as long as it holds the
// handle, across any number of concurrent publishes.
#include "adapt/model_swap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

namespace prord::adapt {
namespace {

using logmining::MiningModel;
using logmining::MiningConfig;

std::shared_ptr<MiningModel> model_predicting(trace::FileId from,
                                              trace::FileId to) {
  auto model = std::make_shared<MiningModel>(
      std::span<const trace::Request>{}, MiningConfig{});
  for (int i = 0; i < 5; ++i)
    model->predictor().observe_transition(std::vector<trace::FileId>{from},
                                          to);
  return model;
}

TEST(ModelSwap, SeedsEpochZeroAndNeverNull) {
  ModelSwap swap(model_predicting(1, 2));
  const auto snap = swap.current();
  ASSERT_NE(snap, nullptr);
  ASSERT_NE(snap->model, nullptr);
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(swap.epoch(), 0u);
}

TEST(ModelSwap, PublishAdvancesEpochAndSwapsModel) {
  ModelSwap swap(model_predicting(1, 2));
  EXPECT_EQ(swap.publish(model_predicting(1, 3)), 1u);
  const auto snap = swap.current();
  EXPECT_EQ(snap->epoch, 1u);
  const auto guess =
      snap->model->predictor().predict(std::vector<trace::FileId>{1}, 0.0);
  ASSERT_TRUE(guess.has_value());
  EXPECT_EQ(guess->page, 3u);
}

TEST(ModelSwap, HeldSnapshotSurvivesPublishUnchanged) {
  // The "no torn model" contract, single-threaded form: an in-flight
  // request that grabbed the model keeps the exact old generation while
  // new requests see the new one.
  ModelSwap swap(model_predicting(1, 2));
  const auto held = swap.current();
  swap.publish(model_predicting(1, 3));

  EXPECT_EQ(held->epoch, 0u);
  const auto old_guess =
      held->model->predictor().predict(std::vector<trace::FileId>{1}, 0.0);
  ASSERT_TRUE(old_guess.has_value());
  EXPECT_EQ(old_guess->page, 2u);

  const auto fresh = swap.current();
  EXPECT_EQ(fresh->epoch, 1u);
  EXPECT_NE(fresh->model.get(), held->model.get());
}

TEST(ModelSwap, PreviousBufferKeepsRetiringModelAlive) {
  ModelSwap swap(model_predicting(1, 2));
  std::weak_ptr<MiningModel> retired = swap.current()->model;

  // One publish: the old generation moves to the one-deep previous buffer
  // and stays alive even with no external handles.
  swap.publish(model_predicting(1, 3));
  EXPECT_FALSE(retired.expired());

  // A second publish pushes it out entirely.
  swap.publish(model_predicting(1, 4));
  EXPECT_TRUE(retired.expired());
}

TEST(ModelSwap, ListenersSeeEachPublication) {
  ModelSwap swap(model_predicting(1, 2));
  swap.publish(model_predicting(1, 3));  // before subscription: not seen

  std::vector<std::uint64_t> seen;
  swap.subscribe([&](const ModelSwap::Snapshot& s) {
    ASSERT_NE(s.model, nullptr);
    seen.push_back(s.epoch);
  });
  swap.publish(model_predicting(1, 4));
  swap.publish(model_predicting(1, 5));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 3}));
}

TEST(ModelSwap, ConcurrentReadersNeverObserveTornState) {
  // Hammer test: while a writer publishes generations tagged by a
  // distinguishable prediction, readers repeatedly take snapshots and
  // verify that the (epoch, model) pair is internally consistent — the
  // model of epoch k always predicts page k. The context page is outside
  // the predicted range: a model of the self-transition k -> k predicts
  // nothing (self-links are not navigation), so it cannot stand for any
  // epoch.
  constexpr std::uint64_t kGenerations = 200;
  constexpr trace::FileId kFrom = 1'000'000;
  ModelSwap swap(model_predicting(kFrom, 0));

  std::atomic<bool> torn{false};
  std::atomic<bool> stop{false};
  auto reader = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = swap.current();
      if (!snap || !snap->model) {
        torn = true;
        return;
      }
      const auto guess = snap->model->predictor().predict(
          std::vector<trace::FileId>{kFrom}, 0.0);
      if (!guess || guess->page != snap->epoch) {
        torn = true;
        return;
      }
    }
  };
  std::thread r1(reader), r2(reader);
  for (std::uint64_t gen = 1; gen <= kGenerations; ++gen)
    swap.publish(model_predicting(kFrom, static_cast<trace::FileId>(gen)));
  stop = true;
  r1.join();
  r2.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(swap.epoch(), kGenerations);
}

}  // namespace
}  // namespace prord::adapt
