// Save/load round-trip tests for the mined state (the offline-mining ->
// distributor hand-off artifact).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "logmining/mining_model.h"
#include "trace/generator.h"
#include "trace/workload.h"

namespace prord::logmining {
namespace {

using Seq = std::vector<trace::FileId>;

/// Two predictors answer identically on a probe set.
void expect_equivalent(const Predictor& a, const Predictor& b,
                       std::span<const Seq> probes) {
  EXPECT_EQ(a.num_entries(), b.num_entries());
  for (const auto& ctx : probes) {
    const auto pa = a.predict_all(ctx, 8);
    const auto pb = b.predict_all(ctx, 8);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].page, pb[i].page);
      EXPECT_DOUBLE_EQ(pa[i].confidence, pb[i].confidence);
    }
  }
}

class PredictorRoundTrip
    : public ::testing::TestWithParam<PredictorKind> {};

TEST_P(PredictorRoundTrip, SaveLoadPreservesPredictions) {
  auto original = make_predictor(GetParam(), 2);
  util::Rng rng(5);
  std::vector<Seq> probes;
  for (int s = 0; s < 120; ++s) {
    Seq seq;
    trace::FileId cur = static_cast<trace::FileId>(rng.below(25));
    for (int i = 0; i < 5; ++i) {
      seq.push_back(cur);
      cur = static_cast<trace::FileId>((cur * 7 + 1 + rng.below(3)) % 25);
    }
    original->observe(seq);
    if (s % 10 == 0) probes.push_back(seq);
  }

  std::stringstream ss;
  original->save(ss);
  auto restored = make_predictor(GetParam(), 2);
  ASSERT_TRUE(restored->load(ss));
  expect_equivalent(*original, *restored, probes);
}

TEST_P(PredictorRoundTrip, LoadedPredictorKeepsLearning) {
  auto original = make_predictor(GetParam(), 2);
  for (int i = 0; i < 5; ++i) original->observe(Seq{1, 2});
  std::stringstream ss;
  original->save(ss);
  auto restored = make_predictor(GetParam(), 2);
  ASSERT_TRUE(restored->load(ss));
  // Continue training after the hand-off.
  for (int i = 0; i < 20; ++i) restored->observe(Seq{1, 3});
  const auto pred = restored->predict(Seq{1}, 0.0);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->page, 3u);
}

TEST_P(PredictorRoundTrip, LoadRejectsWrongOrder) {
  auto original = make_predictor(GetParam(), 2);
  original->observe(Seq{1, 2, 3});
  std::stringstream ss;
  original->save(ss);
  auto wrong = make_predictor(GetParam(), 3);
  EXPECT_FALSE(wrong->load(ss));
}

TEST_P(PredictorRoundTrip, LoadRejectsGarbage) {
  auto p = make_predictor(GetParam(), 2);
  std::stringstream ss("this is not a model");
  EXPECT_FALSE(p->load(ss));
}

TEST_P(PredictorRoundTrip, LoadRejectsWrongKind) {
  auto original = make_predictor(GetParam(), 2);
  original->observe(Seq{1, 2, 3});
  std::stringstream ss;
  original->save(ss);
  // The candidate-path predictor writes its hit table in the Markov text,
  // so a predictor tells only the dependency graph's text apart from its
  // own; the saved model's kind line separates every pair.
  std::vector<trace::Request> reqs(3);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    reqs[i].file = static_cast<trace::FileId>(i + 1);
  MiningConfig config;
  config.predictor = GetParam();
  std::stringstream model;
  MiningModel(reqs, config).save(model);
  const auto depgraph = PredictorKind::kDependencyGraph;
  for (const auto other :
       {PredictorKind::kCandidatePath, PredictorKind::kMarkov,
        PredictorKind::kDependencyGraph}) {
    if (other == GetParam()) continue;
    if (other == depgraph || GetParam() == depgraph) {
      ss.clear();
      ss.seekg(0);
      auto wrong = make_predictor(other, 2);
      EXPECT_FALSE(wrong->load(ss));
    }
    MiningConfig other_config = config;
    other_config.predictor = other;
    std::stringstream text(model.str());
    EXPECT_FALSE(MiningModel::load(text, other_config).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PredictorRoundTrip,
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

TEST(BundleRoundTrip, PreservesBundles) {
  BundleMiner m(0.5);
  std::vector<trace::Request> reqs;
  for (int i = 0; i < 10; ++i) {
    trace::Request page;
    page.file = 1;
    reqs.push_back(page);
    trace::Request obj;
    obj.file = 100;
    obj.is_embedded = true;
    obj.parent_page = 1;
    reqs.push_back(obj);
  }
  m.observe(reqs);
  m.finalize();
  std::stringstream ss;
  m.save(ss);
  BundleMiner restored(0.5);
  ASSERT_TRUE(restored.load(ss));
  EXPECT_TRUE(restored.in_bundle(1, 100));
  EXPECT_EQ(restored.num_bundles(), m.num_bundles());
}

TEST(PopularityRoundTrip, PreservesDecayedRanks) {
  PopularityTracker t(sim::sec(60.0));
  t.record_hit(1, 0);
  t.record_hit(1, sim::sec(10.0));
  t.record_hit(2, sim::sec(30.0));
  std::stringstream ss;
  t.save(ss);
  PopularityTracker restored(sim::sec(60.0));
  ASSERT_TRUE(restored.load(ss));
  for (const trace::FileId f : {1u, 2u, 3u})
    EXPECT_DOUBLE_EQ(restored.rank(f, sim::sec(45.0)),
                     t.rank(f, sim::sec(45.0)));
}

TEST(PopularityRoundTrip, RejectsHalflifeMismatch) {
  PopularityTracker t(sim::sec(60.0));
  t.record_hit(1, 0);
  std::stringstream ss;
  t.save(ss);
  PopularityTracker other(sim::sec(30.0));
  EXPECT_FALSE(other.load(ss));
}

TEST(MiningModelRoundTrip, FullModel) {
  trace::SiteBuildParams sp;
  sp.sections = 3;
  sp.pages_per_section = 12;
  sp.seed = 61;
  const auto site = build_site(sp);
  trace::TraceGenParams gp;
  gp.target_requests = 4000;
  gp.duration_sec = 400;
  gp.seed = 62;
  const auto t = generate_trace(site, gp);
  const auto w = trace::build_workload(t.records);

  MiningConfig config;
  MiningModel original(w.requests, config);
  std::stringstream ss;
  original.save(ss);

  auto restored = MiningModel::load(ss, config);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->training_sessions(), original.training_sessions());
  EXPECT_EQ(restored->predictor().num_entries(),
            original.predictor().num_entries());
  EXPECT_EQ(restored->bundles().num_bundles(),
            original.bundles().num_bundles());
  EXPECT_EQ(restored->popularity().num_files(),
            original.popularity().num_files());

  // Predictions agree on real session prefixes.
  const auto sessions = build_sessions(w.requests);
  std::size_t checked = 0;
  for (const auto& s : sessions) {
    if (s.pages.size() < 3 || checked > 50) break;
    const auto ctx = std::span(s.pages).subspan(0, 2);
    const auto a = original.predictor().predict(ctx, 0.0);
    const auto b = restored->predictor().predict(ctx, 0.0);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->page, b->page);
      EXPECT_DOUBLE_EQ(a->confidence, b->confidence);
    }
    ++checked;
  }
}

// Property test over every predictor kind: mine a synthetic trace, save,
// load, and the restored model must answer identically — predictor top-k
// on real session prefixes, bundle table, and the popularity rank table.
class MiningModelRoundTripAllKinds
    : public ::testing::TestWithParam<PredictorKind> {};

TEST_P(MiningModelRoundTripAllKinds, PreservesTopKBundlesAndRanks) {
  trace::SiteBuildParams sp;
  sp.sections = 4;
  sp.pages_per_section = 10;
  sp.seed = 71;
  const auto site = build_site(sp);
  trace::TraceGenParams gp;
  gp.target_requests = 5000;
  gp.duration_sec = 500;
  gp.seed = 72;
  const auto t = generate_trace(site, gp);
  const auto w = trace::build_workload(t.records);

  MiningConfig config;
  config.predictor = GetParam();
  MiningModel original(w.requests, config);
  std::stringstream ss;
  original.save(ss);
  auto restored = MiningModel::load(ss, config);
  ASSERT_TRUE(restored.has_value());

  // Predictor: top-k answers agree on every mined session prefix.
  const auto sessions = build_sessions(w.requests, config.session);
  for (const auto& s : sessions) {
    for (std::size_t len = 1; len < s.pages.size(); ++len) {
      const auto ctx = std::span(s.pages).subspan(0, len);
      const auto a = original.predictor().predict_all(ctx, 4);
      const auto b = restored->predictor().predict_all(ctx, 4);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].page, b[i].page);
        EXPECT_DOUBLE_EQ(a[i].confidence, b[i].confidence);
      }
    }
  }

  // Bundle table: same bundles, same members, for every mined page.
  EXPECT_EQ(restored->bundles().num_bundles(), original.bundles().num_bundles());
  for (const auto& req : w.requests) {
    const auto ba = original.bundles().bundle_of(req.file);
    const auto bb = restored->bundles().bundle_of(req.file);
    ASSERT_EQ(ba.size(), bb.size());
    for (std::size_t i = 0; i < ba.size(); ++i) EXPECT_EQ(ba[i], bb[i]);
  }

  // Popularity rank table: identical order and decayed values.
  const auto ra = original.popularity().rank_table(sim::sec(100.0));
  const auto rb = restored->popularity().rank_table(sim::sec(100.0));
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].file, rb[i].file);
    EXPECT_DOUBLE_EQ(ra[i].rank, rb[i].rank);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MiningModelRoundTripAllKinds,
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

TEST(MiningModelRoundTrip, RejectsConfigMismatch) {
  std::vector<trace::Request> reqs(3);
  MiningConfig config;
  MiningModel original(reqs, config);
  std::stringstream ss;
  original.save(ss);
  MiningConfig other = config;
  other.predictor = PredictorKind::kMarkov;
  EXPECT_FALSE(MiningModel::load(ss, other).has_value());
}

// Before the link table was dropped, a candidate-path model wrote a
// "candidatepath <order> <pages>" link block ahead of its hit table. Such a
// model is rejected whole, and the predictor it was loaded into keeps its
// state.
TEST(MiningModelRoundTrip, RejectsOldCandidatePathFormat) {
  std::vector<trace::Request> reqs(4);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    reqs[i].file = static_cast<trace::FileId>(i + 1);
  MiningConfig config;
  config.predictor = PredictorKind::kCandidatePath;
  std::stringstream ss;
  MiningModel(reqs, config).save(ss);
  std::string text = ss.str();
  const std::size_t at = text.find("markov ");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, "candidatepath 2 3\n1 1 2\n2 1 3\n3 1 4\n");
  std::stringstream old_model(text);
  EXPECT_FALSE(MiningModel::load(old_model, config).has_value());

  CandidatePathPredictor p(2);
  p.observe(Seq{5, 6, 7});
  const std::size_t before = p.num_entries();
  std::stringstream old_predictor(text.substr(at));
  EXPECT_FALSE(p.load(old_predictor));
  EXPECT_EQ(p.num_entries(), before);
  ASSERT_TRUE(p.predict(Seq{5, 6}, 0.0));
  EXPECT_EQ(p.predict(Seq{5, 6}, 0.0)->page, 7u);
}

TEST(MiningModelRoundTrip, RejectsTruncatedStream) {
  std::vector<trace::Request> reqs(3);
  MiningConfig config;
  MiningModel original(reqs, config);
  std::stringstream ss;
  original.save(ss);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(MiningModel::load(truncated, config).has_value());
}

}  // namespace
}  // namespace prord::logmining
