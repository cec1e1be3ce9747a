// Equality fuzz: the PRORD-graph backend of the PredictionService must be
// *prediction-identical* to driving the logmining predictor by hand with
// the same per-connection context rule. feed() applies in place, so every
// intermediate model state is comparable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "logmining/predictor.h"
#include "predict/predictor_iface.h"
#include "util/rng.h"

namespace prord::predict {
namespace {

using trace::FileId;

// Mirror of the service's graph-backend apply rule: per-connection
// history rows of length max(order + 1, lookahead_range), main pages
// only, observe_transition(prior context, file).
class LegacyHarness {
 public:
  LegacyHarness(unsigned order, std::size_t history_cap)
      : predictor_(order), cap_(history_cap) {}

  void feed(std::uint32_t conn, FileId file) {
    auto& pages = history_[conn];
    if (!pages.empty()) predictor_.observe_transition(pages, file);
    pages.push_back(file);
    if (pages.size() > cap_) pages.erase(pages.begin());
  }

  std::vector<logmining::Prediction> predict_all(
      std::span<const FileId> context, std::size_t k) const {
    return predictor_.predict_all(context, k);
  }

 private:
  logmining::CandidatePathPredictor predictor_;
  std::size_t cap_;
  std::unordered_map<std::uint32_t, std::vector<FileId>> history_;
};

void expect_same(const std::vector<Association>& got,
                 const std::vector<logmining::Prediction>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].file, want[j].page);
    EXPECT_DOUBLE_EQ(got[j].confidence, want[j].confidence);
  }
}

TEST(LegacyEquality, SyncGraphMatchesCandidatePathPredictor) {
  const std::uint64_t seeds[] = {3, 17, 2006, 987654321};
  for (const std::uint64_t seed : seeds) {
    PredictorParams params;
    params.algo = Algo::kPrordGraph;
    params.order = 2;
    params.record_table_rows = 1 << 20;  // no history eviction: the legacy
    params.mining_table_rows = 1 << 20;  // harness has no caps to mirror
    auto service = make_prediction_service(params);
    auto link = service->register_link();

    const std::size_t cap = std::max<std::size_t>(params.order + 1,
                                                  params.lookahead_range);
    LegacyHarness legacy(params.order, cap);

    util::Rng rng(seed);
    constexpr std::uint32_t kConns = 12;
    constexpr FileId kFiles = 40;
    for (int i = 0; i < 6'000; ++i) {
      const auto conn = static_cast<std::uint32_t>(rng.below(kConns));
      const auto file = static_cast<FileId>(rng.below(kFiles));

      Observation o;
      o.conn = conn;
      o.file = file;
      link->feed(o);
      legacy.feed(conn, file);

      // Interleave queries with training so every intermediate model
      // state is compared, not just the final one.
      if (i % 7 == 0) {
        std::vector<FileId> context;
        const auto len = 1 + rng.below(3);
        for (std::uint64_t j = 0; j < len; ++j)
          context.push_back(static_cast<FileId>(rng.below(kFiles)));
        for (const std::size_t k : {1u, 3u}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " step " << i << " k " << k);
          expect_same(link->associations(context, k),
                      legacy.predict_all(context, k));
        }
      }
    }
  }
}

TEST(LegacyEquality, EmbeddedObjectsNeverTrainEitherSide) {
  PredictorParams params;
  params.algo = Algo::kPrordGraph;
  auto service = make_prediction_service(params);
  auto link = service->register_link();
  const std::size_t cap = std::max<std::size_t>(params.order + 1,
                                                params.lookahead_range);
  LegacyHarness legacy(params.order, cap);

  util::Rng rng(99);
  for (int i = 0; i < 2'000; ++i) {
    const auto conn = static_cast<std::uint32_t>(rng.below(6));
    const auto file = static_cast<FileId>(rng.below(30));
    const bool embedded = rng.below(3) == 0;
    Observation o;
    o.conn = conn;
    o.file = file;
    o.main_page = !embedded;
    link->feed(o);
    if (!embedded) legacy.feed(conn, file);  // legacy rule: main pages only
  }
  for (FileId f = 0; f < 30; ++f) {
    const std::vector<FileId> context{f};
    for (const std::size_t k : {1u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "context " << f << " k " << k);
      expect_same(link->associations(context, k),
                  legacy.predict_all(context, k));
    }
  }
}

}  // namespace
}  // namespace prord::predict
