#include "logmining/predictor.h"

#include <gtest/gtest.h>

#include <memory>

#include "logmining/mining_model.h"
#include "util/rng.h"

namespace prord::logmining {
namespace {

using Seq = std::vector<trace::FileId>;

// ---------------------------------------------------------------------------
// Parameterized conformance tests: every predictor must satisfy these.

class PredictorConformance
    : public ::testing::TestWithParam<PredictorKind> {
 protected:
  std::unique_ptr<Predictor> make(unsigned order = 2) const {
    return make_predictor(GetParam(), order);
  }
};

TEST_P(PredictorConformance, EmptyPredictorPredictsNothing) {
  auto p = make();
  const Seq ctx{1, 2};
  EXPECT_FALSE(p->predict(ctx, 0.0).has_value());
  EXPECT_TRUE(p->predict_all(ctx, 5).empty());
  EXPECT_EQ(p->num_entries(), 0u);
}

TEST_P(PredictorConformance, LearnsSimpleChain) {
  auto p = make();
  for (int i = 0; i < 10; ++i) p->observe(Seq{1, 2, 3});
  const auto pred = p->predict(Seq{1, 2}, 0.5);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->page, 3u);
  EXPECT_GE(pred->confidence, 0.99);
}

TEST_P(PredictorConformance, ConfidenceReflectsFrequency) {
  auto p = make();
  for (int i = 0; i < 7; ++i) p->observe(Seq{1, 2});
  for (int i = 0; i < 3; ++i) p->observe(Seq{1, 3});
  const auto all = p->predict_all(Seq{1}, 10);
  ASSERT_GE(all.size(), 2u);
  EXPECT_EQ(all[0].page, 2u);
  EXPECT_NEAR(all[0].confidence, 0.7, 0.01);
  EXPECT_EQ(all[1].page, 3u);
  EXPECT_NEAR(all[1].confidence, 0.3, 0.01);
}

TEST_P(PredictorConformance, MinConfidenceGates) {
  auto p = make();
  for (int i = 0; i < 6; ++i) p->observe(Seq{1, 2});
  for (int i = 0; i < 4; ++i) p->observe(Seq{1, 3});
  EXPECT_TRUE(p->predict(Seq{1}, 0.5).has_value());
  EXPECT_FALSE(p->predict(Seq{1}, 0.9).has_value());
}

TEST_P(PredictorConformance, OnlineTransitionUpdates) {
  auto p = make();
  p->observe_transition(Seq{1}, 2);
  p->observe_transition(Seq{1}, 2);
  const auto pred = p->predict(Seq{1}, 0.0);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->page, 2u);
}

TEST_P(PredictorConformance, PredictAllRespectsK) {
  auto p = make();
  for (trace::FileId f = 10; f < 20; ++f) p->observe(Seq{1, f});
  EXPECT_LE(p->predict_all(Seq{1}, 3).size(), 3u);
}

TEST_P(PredictorConformance, NumEntriesGrowsWithData) {
  auto p = make();
  p->observe(Seq{1, 2, 3, 4});
  const auto before = p->num_entries();
  p->observe(Seq{5, 6, 7, 8});
  EXPECT_GT(p->num_entries(), before);
}

TEST_P(PredictorConformance, EmptyContextHandled) {
  auto p = make();
  p->observe(Seq{1, 2});
  EXPECT_FALSE(p->predict(Seq{}, 0.0).has_value());
}

INSTANTIATE_TEST_SUITE_P(AllPredictors, PredictorConformance,
                         ::testing::Values(PredictorKind::kCandidatePath,
                                           PredictorKind::kMarkov,
                                           PredictorKind::kDependencyGraph),
                         [](const auto& info) {
                           switch (info.param) {
                             case PredictorKind::kCandidatePath:
                               return "CandidatePath";
                             case PredictorKind::kMarkov:
                               return "Markov";
                             case PredictorKind::kDependencyGraph:
                               return "DependencyGraph";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Markov-specific behaviour.

TEST(Markov, HigherOrderContextDisambiguates) {
  // Fig. 3's scenario: sequences through D depend on where they started.
  // A -> D -> C (70%), B -> D -> E (60%). An order-2 predictor keyed on
  // (A, D) vs (B, D) separates them; order-1 cannot.
  MarkovPredictor p(2);
  for (int i = 0; i < 7; ++i) p.observe(Seq{'A', 'D', 'C'});
  for (int i = 0; i < 3; ++i) p.observe(Seq{'A', 'D', 'E'});
  for (int i = 0; i < 6; ++i) p.observe(Seq{'B', 'D', 'E'});
  for (int i = 0; i < 4; ++i) p.observe(Seq{'B', 'D', 'C'});

  const auto from_a = p.predict(Seq{'A', 'D'}, 0.0);
  const auto from_b = p.predict(Seq{'B', 'D'}, 0.0);
  ASSERT_TRUE(from_a && from_b);
  EXPECT_EQ(from_a->page, static_cast<trace::FileId>('C'));
  EXPECT_NEAR(from_a->confidence, 0.7, 0.01);
  EXPECT_EQ(from_a->matched_order, 2u);
  EXPECT_EQ(from_b->page, static_cast<trace::FileId>('E'));
  EXPECT_NEAR(from_b->confidence, 0.6, 0.01);
}

TEST(Markov, BacksOffToShorterContext) {
  MarkovPredictor p(3);
  for (int i = 0; i < 5; ++i) p.observe(Seq{1, 2});
  // Context {9, 1} was never seen at order 2; order-1 context {1} was.
  const auto pred = p.predict(Seq{9, 1}, 0.0);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->page, 2u);
  EXPECT_EQ(pred->matched_order, 1u);
}

TEST(Markov, ContextLongerThanOrderUsesSuffix) {
  MarkovPredictor p(2);
  for (int i = 0; i < 5; ++i) p.observe(Seq{7, 8, 9});
  const auto pred = p.predict(Seq{1, 2, 3, 7, 8}, 0.0);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->page, 9u);
}

TEST(Markov, RejectsBadOrder) {
  EXPECT_THROW(MarkovPredictor(0), std::invalid_argument);
  EXPECT_THROW(MarkovPredictor(9), std::invalid_argument);
}

TEST(Markov, DeterministicTieBreakByPageId) {
  MarkovPredictor p(1);
  p.observe(Seq{1, 5});
  p.observe(Seq{1, 3});
  const auto all = p.predict_all(Seq{1}, 2);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].page, 3u);  // equal confidence: lower id first
  EXPECT_EQ(all[1].page, 5u);
}

// ---------------------------------------------------------------------------
// Dependency-graph-specific behaviour.

TEST(DependencyGraph, WindowCountsNonAdjacentSuccessors) {
  DependencyGraphPredictor p(2);  // lookahead 2
  for (int i = 0; i < 10; ++i) p.observe(Seq{1, 2, 3});
  // With window 2, page 3 is credited to page 1 as well as page 2.
  const auto all = p.predict_all(Seq{1}, 10);
  ASSERT_EQ(all.size(), 2u);
  bool saw3 = false;
  for (const auto& pr : all) saw3 |= (pr.page == 3u);
  EXPECT_TRUE(saw3);
}

TEST(DependencyGraph, WindowOneIsFirstOrder) {
  DependencyGraphPredictor p(1);
  for (int i = 0; i < 10; ++i) p.observe(Seq{1, 2, 3});
  const auto all = p.predict_all(Seq{1}, 10);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].page, 2u);
}

TEST(DependencyGraph, RejectsZeroWindow) {
  EXPECT_THROW(DependencyGraphPredictor(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Candidate-path (Algorithms 1 & 2) specific behaviour.

TEST(CandidatePath, PredictionsRestrictedToLinkedPages) {
  CandidatePathPredictor p(2);
  // 1 -> 2 always; 2 -> 3 or 4.
  for (int i = 0; i < 5; ++i) p.observe(Seq{1, 2, 3});
  for (int i = 0; i < 5; ++i) p.observe(Seq{1, 2, 4});
  const auto all = p.predict_all(Seq{1, 2}, 10);
  for (const auto& pred : all) EXPECT_TRUE(pred.page == 3 || pred.page == 4);
}

TEST(CandidatePath, MemoryBoundedVsUnrestrictedMarkov) {
  // The linked-only restriction (Section 4.1.1(i)) must not store more
  // successor entries than the unrestricted table: it stores the same
  // counters and filters at query time.
  CandidatePathPredictor cp(2);
  MarkovPredictor mk(2);
  util::Rng rng(3);
  for (int s = 0; s < 200; ++s) {
    Seq seq;
    trace::FileId cur = static_cast<trace::FileId>(rng.below(30));
    for (int i = 0; i < 6; ++i) {
      seq.push_back(cur);
      cur = static_cast<trace::FileId>((cur + 1 + rng.below(3)) % 30);
    }
    cp.observe(seq);
    mk.observe(seq);
  }
  EXPECT_GT(cp.num_entries(), 0u);
  EXPECT_EQ(cp.num_entries(), mk.num_entries());
  // Sanity: both predict something for a seen context.
  EXPECT_FALSE(cp.predict_all(Seq{0}, 3).empty());
  EXPECT_FALSE(mk.predict_all(Seq{0}, 3).empty());
}

TEST_P(PredictorConformance, AgingShrinksCounts) {
  auto p = make();
  for (int i = 0; i < 10; ++i) p->observe(Seq{1, 2});
  for (int i = 0; i < 2; ++i) p->observe(Seq{1, 3});
  p->age(0.25);  // 10 -> 2, 2 -> 0 (pruned)
  const auto all = p->predict_all(Seq{1}, 10);
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].page, 2u);
  for (const auto& pr : all) EXPECT_NE(pr.page, 3u);
}

TEST_P(PredictorConformance, AgingToNothingForgetsEverything) {
  auto p = make();
  p->observe(Seq{1, 2});
  p->age(0.1);  // single observation drops to zero
  EXPECT_TRUE(p->predict_all(Seq{1}, 5).empty());
}

TEST_P(PredictorConformance, AgingRejectsBadFraction) {
  auto p = make();
  EXPECT_THROW(p->age(0.0), std::invalid_argument);
  EXPECT_THROW(p->age(1.5), std::invalid_argument);
}

TEST_P(PredictorConformance, AgingKeepsConfidencesNormalized) {
  auto p = make();
  for (int i = 0; i < 8; ++i) p->observe(Seq{1, 2});
  for (int i = 0; i < 8; ++i) p->observe(Seq{1, 3});
  p->age(0.5);
  const auto all = p->predict_all(Seq{1}, 10);
  double total = 0;
  for (const auto& pr : all) total += pr.confidence;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_NEAR(all[0].confidence, 0.5, 0.01);
}

TEST(MakePredictor, FactoryCoversAllKinds) {
  EXPECT_NE(make_predictor(PredictorKind::kCandidatePath, 2), nullptr);
  EXPECT_NE(make_predictor(PredictorKind::kMarkov, 2), nullptr);
  EXPECT_NE(make_predictor(PredictorKind::kDependencyGraph, 2), nullptr);
}

}  // namespace
}  // namespace prord::logmining
