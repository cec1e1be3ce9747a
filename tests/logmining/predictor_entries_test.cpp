// num_entries() is a running count; these fuzzes check it against a
// test-local walk of the predictor's saved state after every operation
// (training, online updates, aging with and without a floor, save/load)
// and on every clone.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "logmining/mining_model.h"
#include "logmining/predictor.h"
#include "util/rng.h"

namespace prord::logmining {
namespace {

/// Entries of one "markov" block: the successor counts of every context.
std::size_t walk_markov(std::istream& in) {
  std::string tag;
  unsigned order = 0;
  in >> tag >> order;
  EXPECT_EQ(tag, "markov");
  std::size_t entries = 0;
  for (unsigned level = 0; level < order; ++level) {
    std::size_t index = 0, contexts = 0;
    in >> tag >> index >> contexts;
    for (std::size_t c = 0; c < contexts; ++c) {
      std::uint64_t key = 0, total = 0, page = 0, count = 0;
      std::size_t n = 0;
      in >> key >> total >> n;
      entries += n;
      for (std::size_t i = 0; i < n; ++i) in >> page >> count;
    }
  }
  in >> tag;
  EXPECT_EQ(tag, "end");
  return entries;
}

/// Counts the stored (context -> successor) entries by walking save()'s
/// text: every successor and arc the predictor holds. The candidate-path
/// predictor writes the Markov text.
std::size_t walk_entries(const Predictor& p) {
  std::stringstream text;
  p.save(text);
  std::string tag;
  text >> tag;
  if (tag == "markov") {
    text.seekg(0);
    return walk_markov(text);
  }
  EXPECT_EQ(tag, "depgraph");
  std::size_t entries = 0;
  unsigned window = 0;
  std::size_t nodes = 0;
  text >> window >> nodes;
  for (std::size_t i = 0; i < nodes; ++i) {
    std::uint64_t page = 0, occurrences = 0, to = 0, count = 0;
    std::size_t arcs = 0;
    text >> page >> occurrences >> arcs;
    entries += arcs;
    for (std::size_t a = 0; a < arcs; ++a) text >> to >> count;
  }
  return entries;
}

class PredictorEntries : public ::testing::TestWithParam<PredictorKind> {};

TEST_P(PredictorEntries, RunningCountEqualsAWalkAfterEveryOperation) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng(seed);
    const unsigned order = 1 + static_cast<unsigned>(rng.below(3));
    std::unique_ptr<Predictor> p = make_predictor(GetParam(), order);
    const auto page = [&] {
      return static_cast<trace::FileId>(rng.below(40));
    };
    const auto pages = [&](std::size_t max_len) {
      std::vector<trace::FileId> seq(rng.below(max_len + 1));
      for (auto& f : seq) f = page();
      return seq;
    };
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.below(100);
      std::string what;
      if (op < 40) {
        what = "observe";
        p->observe(pages(8));
      } else if (op < 75) {
        what = "observe_transition";
        p->observe_transition(pages(4), page());
      } else if (op < 85) {
        what = "age";
        const double keep = rng.below(2) ? 0.5 : 0.9;
        p->age(keep, /*min_count=*/rng.below(2));
      } else if (op < 92) {
        what = "load";
        std::stringstream text;
        p->save(text);
        std::unique_ptr<Predictor> fresh = make_predictor(GetParam(), order);
        fresh->observe(pages(6));  // state load() must replace
        ASSERT_TRUE(fresh->load(text));
        p = std::move(fresh);
      } else {
        what = "clone";
        std::unique_ptr<Predictor> copy = p->clone();
        ASSERT_EQ(copy->num_entries(), walk_entries(*copy));
        ASSERT_EQ(copy->num_entries(), p->num_entries());
        // The clone learns on; the original must not move with it.
        const std::size_t before = p->num_entries();
        copy->observe(pages(8));
        ASSERT_EQ(copy->num_entries(), walk_entries(*copy));
        ASSERT_EQ(p->num_entries(), before);
        p = std::move(copy);
      }
      ASSERT_EQ(p->num_entries(), walk_entries(*p))
          << "seed " << seed << " step " << step << " after " << what;
    }
    EXPECT_GT(p->num_entries(), 0u);
  }
}

TEST_P(PredictorEntries, FailedLoadLeavesAConsistentCount) {
  std::unique_ptr<Predictor> p = make_predictor(GetParam(), 2);
  p->observe(std::vector<trace::FileId>{1, 2, 3, 4, 2, 5});
  const std::size_t before = p->num_entries();
  std::stringstream text;
  p->save(text);
  std::string truncated = text.str();
  truncated.resize(truncated.size() / 2);
  std::stringstream bad(truncated);
  std::unique_ptr<Predictor> other = make_predictor(GetParam(), 2);
  other->observe(std::vector<trace::FileId>{7, 8, 9});
  EXPECT_FALSE(other->load(bad));
  EXPECT_EQ(other->num_entries(), walk_entries(*other));
  EXPECT_EQ(p->num_entries(), before);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PredictorEntries,
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

}  // namespace
}  // namespace prord::logmining
