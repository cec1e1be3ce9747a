// MithrilMiner unit tests: support band, confidence ranking, bounded
// tables, and — the property the live deployment leans on — deterministic
// eviction: the same observation stream against the same params always
// yields byte-identical tables (docs/PREDICTOR.md "Bounded memory").
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "predict/mithril.h"
#include "util/rng.h"

namespace prord::predict {
namespace {

using trace::FileId;

Observation obs(std::uint32_t conn, FileId file) {
  Observation o;
  o.conn = conn;
  o.file = file;
  return o;
}

PredictorParams small_params() {
  PredictorParams p;
  p.algo = Algo::kMithril;
  p.lookahead_range = 3;
  p.min_support = 2;
  p.max_support = 64;
  p.record_table_rows = 8;     // force record-row LRU eviction
  p.mining_table_rows = 64;    // force pair-table pressure aging
  p.prefetch_table_rows = 16;  // force FIFO prefetch eviction
  p.max_associations = 2;
  return p;
}

TEST(MithrilMiner, PromotesPairAboveMinSupport) {
  MithrilMiner miner(small_params());
  // Pair (1 -> 2) seen once: below min_support, not promoted.
  miner.observe(obs(0, 1));
  miner.observe(obs(0, 2));
  EXPECT_EQ(miner.mine(), 0u);
  EXPECT_EQ(miner.find(1), nullptr);

  // Second sighting on another connection crosses the band.
  miner.observe(obs(1, 1));
  miner.observe(obs(1, 2));
  EXPECT_GT(miner.mine(), 0u);
  const auto* row = miner.find(1);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->front().file, 2u);
  EXPECT_GT(row->front().confidence, 0.0);
}

TEST(MithrilMiner, LookaheadWindowBoundsPairing) {
  PredictorParams p = small_params();
  p.lookahead_range = 2;
  MithrilMiner miner(p);
  // 9 is 3 steps before 5 on the same connection: outside the window.
  for (std::uint32_t conn = 0; conn < 4; ++conn) {
    miner.observe(obs(conn, 9));
    miner.observe(obs(conn, 3));
    miner.observe(obs(conn, 4));
    miner.observe(obs(conn, 5));
  }
  miner.mine();
  const auto* row = miner.find(9);
  if (row != nullptr) {
    for (const auto& assoc : *row) EXPECT_NE(assoc.file, 5u);
  }
  // 4 -> 5 is adjacent: always mined.
  const auto* adjacent = miner.find(4);
  ASSERT_NE(adjacent, nullptr);
  EXPECT_EQ(adjacent->front().file, 5u);
}

TEST(MithrilMiner, ConfidenceRanksAssociations) {
  PredictorParams p = small_params();
  p.max_associations = 4;
  MithrilMiner miner(p);
  // From 7: to 8 six times, to 9 twice — 8 must rank first.
  std::uint32_t conn = 0;
  for (int i = 0; i < 6; ++i) {
    miner.observe(obs(conn, 7));
    miner.observe(obs(conn, 8));
    ++conn;
  }
  for (int i = 0; i < 2; ++i) {
    miner.observe(obs(conn, 7));
    miner.observe(obs(conn, 9));
    ++conn;
  }
  miner.mine();
  const auto* row = miner.find(7);
  ASSERT_NE(row, nullptr);
  ASSERT_GE(row->size(), 2u);
  EXPECT_EQ((*row)[0].file, 8u);
  EXPECT_EQ((*row)[1].file, 9u);
  EXPECT_GT((*row)[0].confidence, (*row)[1].confidence);
}

TEST(MithrilMiner, TablesStayBounded) {
  const PredictorParams p = small_params();
  MithrilMiner miner(p);
  util::Rng rng(42);
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    const auto conn = static_cast<std::uint32_t>(rng.below(64));
    const auto file = static_cast<FileId>(rng.below(512));
    miner.observe(obs(conn, file));
    if (i % 512 == 0) miner.mine();
  }
  miner.mine();
  EXPECT_LE(miner.record_rows(), p.record_table_rows);
  EXPECT_LE(miner.mining_rows(), p.mining_table_rows);
  EXPECT_LE(miner.prefetch_rows(), p.prefetch_table_rows);
  // The tiny mining table must have refused pairs at some point.
  EXPECT_GT(miner.pair_drops(), 0u);
}

// The determinism pin: identical streams + identical mine() points ->
// identical tables, including every eviction decision.
TEST(MithrilMiner, EvictionIsDeterministic) {
  const PredictorParams p = small_params();
  const std::uint64_t seeds[] = {1, 7, 1234567};
  for (const std::uint64_t seed : seeds) {
    MithrilMiner a(p);
    MithrilMiner b(p);
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const auto step = [](MithrilMiner& m, util::Rng& rng, std::uint32_t i) {
      const auto conn = static_cast<std::uint32_t>(rng.below(32));
      const auto file = static_cast<FileId>(rng.below(128));
      m.observe(obs(conn, file));
      if (i % 257 == 0) m.mine();
    };
    for (std::uint32_t i = 0; i < 10'000; ++i) {
      step(a, rng_a, i);
      step(b, rng_b, i);
    }
    a.mine();
    b.mine();

    EXPECT_EQ(a.record_rows(), b.record_rows());
    EXPECT_EQ(a.mining_rows(), b.mining_rows());
    EXPECT_EQ(a.prefetch_rows(), b.prefetch_rows());
    EXPECT_EQ(a.pair_drops(), b.pair_drops());

    for (FileId source = 0; source < 128; ++source) {
      const auto* row_a = a.find(source);
      const auto* row_b = b.find(source);
      ASSERT_EQ(row_a == nullptr, row_b == nullptr)
          << "source " << source << " seed " << seed;
      if (row_a == nullptr) continue;
      ASSERT_EQ(row_a->size(), row_b->size());
      for (std::size_t i = 0; i < row_a->size(); ++i) {
        EXPECT_EQ((*row_a)[i].file, (*row_b)[i].file);
        EXPECT_DOUBLE_EQ((*row_a)[i].confidence, (*row_b)[i].confidence);
      }
    }
  }
}

}  // namespace
}  // namespace prord::predict
