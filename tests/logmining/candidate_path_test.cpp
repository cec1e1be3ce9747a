// The candidate-path predictor (Algorithms 1 & 2) against the Markov table
// it counts with.
//
// Algorithm 1 admits a page as a candidate only when the current page links
// to it. The predictor learns those links from the very transitions its
// counters count, and never links a page to itself, so the rule it applies
// is: the Markov answer for the context, minus the context's own last page.
// This fuzz runs both predictors side by side through training, online
// updates, both aging modes, clones and save/load, with self-loops in the
// stream, and checks that rule after every step, along with the saved
// counters and the entry count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "logmining/predictor.h"
#include "util/rng.h"

namespace prord::logmining {
namespace {

using trace::FileId;

std::string show(const std::vector<Prediction>& preds) {
  std::ostringstream out;
  for (const auto& p : preds)
    out << p.page << ':' << std::bit_cast<std::uint64_t>(p.confidence) << ':'
        << p.matched_order << ' ';
  return out.str();
}

std::string show(const std::optional<Prediction>& p) {
  return p ? show(std::vector<Prediction>{*p}) : std::string("none");
}

/// The Markov top-k with the context's last page removed.
std::vector<Prediction> markov_minus_current(const MarkovPredictor& m,
                                             std::span<const FileId> ctx,
                                             std::size_t k) {
  if (ctx.empty()) return {};
  auto preds = m.predict_all(ctx, std::numeric_limits<std::size_t>::max());
  std::erase_if(preds,
                [&](const Prediction& p) { return p.page == ctx.back(); });
  if (preds.size() > k) preds.resize(k);
  return preds;
}

/// The predictor's saved counters: its text from the "markov" block on.
std::string markov_text(const Predictor& p) {
  std::ostringstream out;
  p.save(out);
  const std::string text = out.str();
  const std::size_t at = text.find("markov ");
  return at == std::string::npos ? std::string() : text.substr(at);
}

template <typename P>
std::unique_ptr<P> reloaded(const P& p, unsigned order) {
  std::stringstream text;
  p.save(text);
  auto fresh = std::make_unique<P>(order);
  fresh->observe(std::vector<FileId>{6, 7, 6});  // state load() must replace
  return fresh->load(text) ? std::move(fresh) : nullptr;
}

void fuzz(unsigned order, std::uint64_t seed) {
  util::Rng rng(seed);
  auto cp = std::make_unique<CandidatePathPredictor>(order);
  auto m = std::make_unique<MarkovPredictor>(order);
  std::set<std::vector<FileId>> contexts;
  // A small universe, and a page repeats its predecessor one time in four,
  // so contexts recur and self-loops are common.
  const auto pages = [&](std::size_t max_len) {
    std::vector<FileId> seq(rng.below(max_len + 1));
    for (std::size_t i = 0; i < seq.size(); ++i)
      seq[i] = i > 0 && rng.below(4) == 0 ? seq[i - 1]
                                          : static_cast<FileId>(rng.below(8));
    return seq;
  };
  const auto remember = [&](const std::vector<FileId>& seq) {
    for (std::size_t end = 0; end <= seq.size(); ++end)
      for (std::size_t len = 0; len <= std::min<std::size_t>(end, order);
           ++len)
        contexts.emplace(seq.begin() + static_cast<std::ptrdiff_t>(end - len),
                         seq.begin() + static_cast<std::ptrdiff_t>(end));
  };
  for (int step = 0; step < 120; ++step) {
    const std::uint64_t op = rng.below(100);
    std::string what;
    if (op < 35) {
      what = "observe";
      const auto seq = pages(10);
      cp->observe(seq);
      m->observe(seq);
      remember(seq);
    } else if (op < 70) {
      what = "observe_transition";
      auto ctx = pages(4);
      const FileId next = !ctx.empty() && rng.below(4) == 0
                              ? ctx.back()
                              : static_cast<FileId>(rng.below(8));
      cp->observe_transition(ctx, next);
      m->observe_transition(ctx, next);
      ctx.push_back(next);
      remember(ctx);
    } else if (op < 82) {
      what = "age";
      const bool online = rng.below(2) != 0;  // the adaptation loop's mode
      cp->age(online ? 0.9 : 0.5, online ? 1 : 0);
      m->age(online ? 0.9 : 0.5, online ? 1 : 0);
    } else if (op < 91) {
      what = "load";
      cp = reloaded(*cp, order);
      m = reloaded(*m, order);
      ASSERT_TRUE(cp && m);
    } else {
      what = "clone";
      std::unique_ptr<Predictor> copy = cp->clone();
      // The original learns on; the clone must not move with it.
      const std::string before = markov_text(*copy);
      cp->observe(std::vector<FileId>{1, 2, 3, 3, 1});
      ASSERT_EQ(markov_text(*copy), before);
      cp.reset(static_cast<CandidatePathPredictor*>(copy.release()));
    }
    const std::string where = "seed " + std::to_string(seed) + " order " +
                              std::to_string(order) + " step " +
                              std::to_string(step) + " after " + what;
    ASSERT_EQ(markov_text(*cp), markov_text(*m)) << where;
    ASSERT_EQ(cp->num_entries(), m->num_entries()) << where;
    for (const auto& ctx : contexts) {
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{3}, std::size_t{8}})
        ASSERT_EQ(show(cp->predict_all(ctx, k)),
                  show(markov_minus_current(*m, ctx, k)))
            << where << " k " << k;
      const auto top = markov_minus_current(*m, ctx, 1);
      for (const double floor : {0.0, 0.5}) {
        std::optional<Prediction> want;
        if (!top.empty() && top.front().confidence >= floor)
          want = top.front();
        ASSERT_EQ(show(cp->predict(ctx, floor)), show(want)) << where;
      }
    }
  }
  EXPECT_GT(m->num_entries(), 0u);
}

TEST(CandidatePathAsMarkov, PredictsMarkovWithoutTheCurrentPage) {
  for (const std::uint64_t seed : {71u, 72u, 73u})
    for (const unsigned order : {1u, 2u, 3u})
      ASSERT_NO_FATAL_FAILURE(fuzz(order, seed));
}

}  // namespace
}  // namespace prord::logmining
