#include "logmining/popularity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>

#include "logmining/replication.h"

namespace prord::logmining {
namespace {

TEST(Popularity, SeedCountsRequests) {
  PopularityTracker t(0);  // no decay
  std::vector<trace::Request> reqs(5);
  for (auto& r : reqs) r.file = 1;
  reqs[4].file = 2;
  t.seed(reqs);
  EXPECT_DOUBLE_EQ(t.rank(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(t.rank(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.rank(99, 0), 0.0);
  EXPECT_EQ(t.num_files(), 2u);
}

TEST(Popularity, OnlineHitsAccumulate) {
  PopularityTracker t(0);
  t.record_hit(7, sim::sec(1.0));
  t.record_hit(7, sim::sec(2.0));
  EXPECT_DOUBLE_EQ(t.rank(7, sim::sec(2.0)), 2.0);
}

TEST(Popularity, DecayHalvesAtHalflife) {
  PopularityTracker t(sim::sec(10.0));
  t.record_hit(1, 0);
  EXPECT_NEAR(t.rank(1, sim::sec(10.0)), 0.5, 1e-9);
  EXPECT_NEAR(t.rank(1, sim::sec(20.0)), 0.25, 1e-9);
}

TEST(Popularity, RecentHitsOutweighOldOnes) {
  PopularityTracker t(sim::sec(10.0));
  for (int i = 0; i < 10; ++i) t.record_hit(1, 0);  // old burst
  t.record_hit(2, sim::sec(60.0));
  t.record_hit(2, sim::sec(60.0));
  EXPECT_GT(t.rank(2, sim::sec(60.0)), t.rank(1, sim::sec(60.0)));
}

TEST(Popularity, RankTableSortedDescending) {
  PopularityTracker t(0);
  for (int i = 0; i < 3; ++i) t.record_hit(10, 0);
  for (int i = 0; i < 5; ++i) t.record_hit(20, 0);
  t.record_hit(30, 0);
  const auto table = t.rank_table(0);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].file, 20u);
  EXPECT_EQ(table[1].file, 10u);
  EXPECT_EQ(table[2].file, 30u);
}

TEST(Popularity, RejectsNegativeHalflife) {
  EXPECT_THROW(PopularityTracker(-1), std::invalid_argument);
}

TEST(Popularity, AgeScalesEveryCounter) {
  PopularityTracker t(0);
  for (int i = 0; i < 4; ++i) t.record_hit(1, 0);
  t.record_hit(2, 0);
  t.age(0.5);
  EXPECT_DOUBLE_EQ(t.rank(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.rank(2, 0), 0.5);
}

TEST(Popularity, AgeDropsNegligibleEntries) {
  PopularityTracker t(0);
  t.record_hit(1, 0);
  for (int i = 0; i < 30; ++i) t.age(0.5);  // 2^-30 < the drop threshold
  EXPECT_EQ(t.num_files(), 0u);
  EXPECT_DOUBLE_EQ(t.rank(1, 0), 0.0);
}

TEST(Popularity, AgeRejectsOutOfRangeKeep) {
  PopularityTracker t(0);
  EXPECT_THROW(t.age(0.0), std::invalid_argument);
  EXPECT_THROW(t.age(1.5), std::invalid_argument);
}

// Regression: load() is all-or-nothing. A stream that parses part-way and
// then goes bad (truncation, garbage, bad trailer, absurd count) must
// leave the live counters exactly as they were — an earlier version
// cleared the table before parsing and bailed out mid-stream.
class PopularityCorruptLoad : public ::testing::Test {
 protected:
  PopularityCorruptLoad() : tracker_(sim::sec(60.0)) {
    tracker_.record_hit(1, 0);
    tracker_.record_hit(1, sim::sec(5.0));
    tracker_.record_hit(2, sim::sec(9.0));
    baseline_ = tracker_;  // after the hits: the state load() must keep
  }

  void expect_untouched() {
    EXPECT_EQ(tracker_.num_files(), 2u);
    EXPECT_DOUBLE_EQ(tracker_.rank(1, sim::sec(9.0)),
                     baseline_.rank(1, sim::sec(9.0)));
    EXPECT_DOUBLE_EQ(tracker_.rank(2, sim::sec(9.0)),
                     baseline_.rank(2, sim::sec(9.0)));
  }

  std::string saved() const {
    std::stringstream ss;
    tracker_.save(ss);
    return ss.str();
  }

  PopularityTracker tracker_;
  PopularityTracker baseline_{sim::sec(60.0)};
};

TEST_F(PopularityCorruptLoad, TruncatedMidEntries) {
  const std::string full = saved();
  std::stringstream truncated(full.substr(0, full.size() * 2 / 3));
  EXPECT_FALSE(tracker_.load(truncated));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, GarbageInsideEntries) {
  std::string bad = saved();
  bad.replace(bad.find('\n') + 1, 1, "x");  // first entry's file id
  std::stringstream ss(bad);
  EXPECT_FALSE(tracker_.load(ss));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, MissingEndTrailer) {
  std::string bad = saved();
  bad.resize(bad.rfind("end"));
  std::stringstream ss(bad);
  EXPECT_FALSE(tracker_.load(ss));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, AbsurdEntryCount) {
  std::stringstream ss("popularity 60000000 184467440737095516 1 1 0\n");
  EXPECT_FALSE(tracker_.load(ss));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, HalflifeMismatch) {
  PopularityTracker other(sim::sec(30.0));
  std::stringstream ss;
  other.record_hit(9, 0);
  other.save(ss);
  EXPECT_FALSE(tracker_.load(ss));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, GoodStreamStillLoads) {
  PopularityTracker other(sim::sec(60.0));
  other.record_hit(9, sim::sec(2.0));
  std::stringstream ss;
  other.save(ss);
  ASSERT_TRUE(tracker_.load(ss));
  EXPECT_EQ(tracker_.num_files(), 1u);
  EXPECT_DOUBLE_EQ(tracker_.rank(9, sim::sec(2.0)),
                   other.rank(9, sim::sec(2.0)));
}

// ---------------------------------------------------------------------------
// Algorithm 3 planning.

std::vector<RankEntry> make_table(std::initializer_list<double> ranks) {
  std::vector<RankEntry> t;
  trace::FileId id = 0;
  for (double r : ranks) t.push_back(RankEntry{id++, r});
  return t;
}

TEST(Replication, TiersFollowAlgorithm3) {
  // T1 = 100 (top). Tiers: >75 all; >50 3/4; >25 1/2; >12.5 keep; else none.
  const auto plan =
      plan_replication(make_table({100, 80, 60, 30, 15, 5}), 8);
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan[0].tier, ReplicaTier::kAll);
  EXPECT_EQ(plan[0].target_replicas, 8u);
  EXPECT_EQ(plan[1].tier, ReplicaTier::kAll);
  EXPECT_EQ(plan[2].tier, ReplicaTier::kThreeQuarter);
  EXPECT_EQ(plan[2].target_replicas, 6u);
  EXPECT_EQ(plan[3].tier, ReplicaTier::kHalf);
  EXPECT_EQ(plan[3].target_replicas, 4u);
  EXPECT_EQ(plan[4].tier, ReplicaTier::kNoChange);
  EXPECT_EQ(plan[5].tier, ReplicaTier::kNone);
}

TEST(Replication, TierReplicasRoundsUp) {
  EXPECT_EQ(tier_replicas(ReplicaTier::kAll, 6), 6u);
  EXPECT_EQ(tier_replicas(ReplicaTier::kThreeQuarter, 6), 5u);  // ceil(4.5)
  EXPECT_EQ(tier_replicas(ReplicaTier::kHalf, 7), 4u);          // ceil(3.5)
  EXPECT_EQ(tier_replicas(ReplicaTier::kNone, 8), 0u);
  EXPECT_GE(tier_replicas(ReplicaTier::kHalf, 1), 1u);
}

TEST(Replication, MinRankCutsTail) {
  ReplicationPlanOptions opt;
  opt.min_rank = 10.0;
  const auto plan = plan_replication(make_table({100, 50, 5}), 4, opt);
  EXPECT_EQ(plan.size(), 2u);
}

TEST(Replication, MaxDirectivesCap) {
  ReplicationPlanOptions opt;
  opt.min_rank = 0.5;
  opt.max_directives = 2;
  const auto plan = plan_replication(make_table({10, 9, 8, 7}), 4, opt);
  EXPECT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].file, 0u);  // hottest first
}

TEST(Replication, EmptyTableEmptyPlan) {
  EXPECT_TRUE(plan_replication({}, 4).empty());
}

TEST(Replication, AllZeroRanksEmptyPlan) {
  EXPECT_TRUE(plan_replication(make_table({0, 0}), 4).empty());
}

TEST(Replication, RejectsZeroServers) {
  EXPECT_THROW(plan_replication(make_table({1}), 0), std::invalid_argument);
}

TEST(Replication, MonotoneTiersDownTheTable) {
  const auto plan = plan_replication(
      make_table({100, 90, 70, 60, 40, 30, 20, 14, 10, 1}), 8);
  for (std::size_t i = 1; i < plan.size(); ++i)
    EXPECT_GE(static_cast<int>(plan[i].tier),
              static_cast<int>(plan[i - 1].tier));
}

// ---------------------------------------------------------------------------
// top_rank_table must return byte-for-byte the prefix of the full sort —
// the replication planner's output, and so every figure table, rests on
// this.
// ---------------------------------------------------------------------------

void expect_prefix_identical(PopularityTracker& t, sim::SimTime now,
                             std::size_t k) {
  auto expected = t.rank_table(now);
  if (expected.size() > k) expected.resize(k);
  std::vector<RankEntry> got;
  got.reserve(1);  // deliberately tiny: the selection must grow it
  t.top_rank_table(now, k, got);
  ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].file, expected[i].file) << "k=" << k << " row " << i;
    // Bitwise equality, not tolerance: both paths must evaluate the same
    // decayed() expression on the same entry.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].rank),
              std::bit_cast<std::uint64_t>(expected[i].rank))
        << "k=" << k << " row " << i;
  }
}

TEST(Popularity, TopRankTableMatchesFullSortPrefix) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 8; ++round) {
    PopularityTracker t(round % 2 ? sim::sec(300.0) : 0);
    const int files = 1 + static_cast<int>(rng() % 400);
    const int hits = 1 + static_cast<int>(rng() % 4000);
    for (int i = 0; i < hits; ++i)
      t.record_hit(static_cast<trace::FileId>(rng() % files),
                   static_cast<sim::SimTime>(rng() % sim::sec(3600.0)));
    const auto now = sim::sec(3600.0);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{7}, std::size_t{64}, std::size_t{256},
                          std::size_t{100000}})
      expect_prefix_identical(t, now, k);
  }
}

TEST(Popularity, TopRankTableTieBreaksByFileId) {
  PopularityTracker t(0);  // no decay: exact rank ties across files
  for (trace::FileId f = 0; f < 50; ++f)
    for (int i = 0; i < 3; ++i) t.record_hit(f, 0);
  for (std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{50}})
    expect_prefix_identical(t, sim::sec(10.0), k);
}

// ---------------------------------------------------------------------------
// top_rank_table carries a band of candidates from one call to the next.
// These drive a tracker through many replication rounds and bit-compare
// every round against the full sort, across each event that must either
// keep the band exact or make the next call rescan.
// ---------------------------------------------------------------------------

constexpr std::size_t kPlanRows = 256;  // Prord's default max_directives

/// One replication interval: `hits` skewed hits at non-decreasing times
/// after `now`, which then advances past the last hit.
void hit_round(PopularityTracker& t, std::mt19937_64& rng, int files,
               int hits, sim::SimTime gap, sim::SimTime& now) {
  for (int i = 0; i < hits; ++i) {
    now += static_cast<sim::SimTime>(rng() % (gap / hits + 1));
    const auto span = 1 + rng() % static_cast<std::uint64_t>(files);
    t.record_hit(static_cast<trace::FileId>(rng() % span), now);
  }
  now += static_cast<sim::SimTime>(rng() % (gap + 1));
}

TEST(Popularity, TopRankTableExactAcrossRounds) {
  // Slow decay (the paper cell's regime), no decay (rank ties broken by
  // file id), and a 1 ms halflife with second-long gaps, so old ranks
  // underflow to subnormal and zero while fresh ones stay normal.
  const sim::SimTime halflives[] = {sim::sec(300.0), 0, sim::msec(1)};
  for (const sim::SimTime halflife : halflives) {
    std::mt19937_64 rng(20261017 + static_cast<std::uint64_t>(halflife));
    PopularityTracker t(halflife);
    sim::SimTime now = 0;
    for (int round = 0; round < 120; ++round) {
      const auto gap = halflife == sim::msec(1) ? sim::sec(1.5) : sim::sec(2.0);
      hit_round(t, rng, 3000, 1 + static_cast<int>(rng() % 40), gap, now);
      expect_prefix_identical(t, now, kPlanRows);
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "halflife=" << halflife << " round " << round;
        return;
      }
    }
  }
}

TEST(Popularity, TopRankTableExactAroundStateChanges) {
  std::mt19937_64 rng(15);
  PopularityTracker t(sim::sec(300.0));
  sim::SimTime now = 0;
  const auto round = [&](std::size_t k) {
    hit_round(t, rng, 2000, 1 + static_cast<int>(rng() % 40), sim::sec(2.0),
              now);
    expect_prefix_identical(t, now, k);
  };
  for (int i = 0; i < 20; ++i) round(kPlanRows);

  // A hit stamped after the query time freezes that rank at its value.
  t.record_hit(3, now + sim::sec(30.0));
  expect_prefix_identical(t, now, kPlanRows);
  expect_prefix_identical(t, now + sim::sec(30.0), kPlanRows);
  now += sim::sec(30.0);
  for (int i = 0; i < 5; ++i) round(kPlanRows);

  t.age(0.5);
  expect_prefix_identical(t, now, kPlanRows);
  for (int i = 0; i < 5; ++i) round(kPlanRows);

  // Reload the table saved one round ago: stamps and values step back.
  std::stringstream saved;
  t.save(saved);
  round(kPlanRows);
  ASSERT_TRUE(t.load(saved));
  expect_prefix_identical(t, now, kPlanRows);
  for (int i = 0; i < 5; ++i) round(kPlanRows);

  // A table loaded from a longer run holds stamps after the query time.
  PopularityTracker longer(sim::sec(300.0));
  for (trace::FileId f = 0; f < 400; ++f)
    longer.record_hit(f, now + sim::sec(static_cast<double>(f)));
  std::stringstream ahead;
  longer.save(ahead);
  ASSERT_TRUE(t.load(ahead));
  expect_prefix_identical(t, now, kPlanRows);
  now += sim::sec(400.0);
  for (int i = 0; i < 5; ++i) round(kPlanRows);

  std::vector<trace::Request> offline(3000);
  for (auto& r : offline)
    r.file = static_cast<trace::FileId>(rng() % (1 + rng() % 2500));
  t.seed(offline);
  expect_prefix_identical(t, now, kPlanRows);
  for (int i = 0; i < 5; ++i) round(kPlanRows);

  for (const std::size_t k : {std::size_t{64}, std::size_t{64},
                              std::size_t{1000}, std::size_t{1}, kPlanRows})
    round(k);
}

TEST(Popularity, TopRankTableExactOnRoundedTies) {
  // value = 1.37 * 2^((240 - stamp) / halflife) gives every file the same
  // exact rank at any later time. Computed, the ranks split into a few
  // values a last bit apart, and the keys into others, in no matching
  // order. The band's margin must hold the whole group, or the cut by
  // key drops files the cut by (rank, file) keeps.
  constexpr sim::SimTime halflife = 3;
  std::mt19937_64 rng(4);
  std::stringstream table;
  table << "popularity " << halflife << " 600\n";
  for (trace::FileId f = 0; f < 600; ++f) {
    const auto stamp = static_cast<sim::SimTime>(rng() % 240);
    const double value =
        1.37 * std::exp2(static_cast<double>(240 - stamp) / halflife);
    table << f << ' ' << std::bit_cast<std::uint64_t>(value) << ' ' << stamp
          << '\n';
  }
  table << "end\n";
  PopularityTracker t(halflife);
  ASSERT_TRUE(t.load(table));
  sim::SimTime now = 300;
  for (int round = 0; round < 20; ++round) {
    expect_prefix_identical(t, now, 100);
    t.record_hit(static_cast<trace::FileId>(rng() % 600), now);
    now += 1 + static_cast<sim::SimTime>(rng() % 3);
  }
}

TEST(Popularity, TopRankTableCopiesStayExact) {
  std::mt19937_64 rng(99);
  PopularityTracker original(sim::sec(300.0));
  sim::SimTime now = 0;
  for (int i = 0; i < 10; ++i) {
    hit_round(original, rng, 1500, 30, sim::sec(2.0), now);
    expect_prefix_identical(original, now, kPlanRows);
  }

  PopularityTracker copy = original;
  PopularityTracker assigned(sim::sec(300.0));
  expect_prefix_identical(assigned, now, kPlanRows);  // give it a band first
  assigned = original;
  for (auto* t : {&original, &copy, &assigned})
    expect_prefix_identical(*t, now, kPlanRows);

  // Each gets its own hits; none may select from another's table.
  for (int i = 0; i < 10; ++i) {
    const sim::SimTime start = now;
    for (auto* t : {&original, &copy, &assigned}) {
      sim::SimTime end = start;
      hit_round(*t, rng, 1500, 30, sim::sec(2.0), end);
      now = std::max(now, end);
    }
    for (auto* t : {&original, &copy, &assigned})
      expect_prefix_identical(*t, now, kPlanRows);
  }

  PopularityTracker moved = std::move(copy);
  for (int i = 0; i < 5; ++i) {
    hit_round(moved, rng, 1500, 30, sim::sec(2.0), now);
    expect_prefix_identical(moved, now, kPlanRows);
    expect_prefix_identical(original, now, kPlanRows);
  }
}

}  // namespace
}  // namespace prord::logmining
