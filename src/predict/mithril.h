// Mithril-style association mining backend (docs/PREDICTOR.md).
//
// The Mithril prefetcher's insight, transplanted from block storage to
// web navigation: keep a *bounded* record of recent access history, mine
// it periodically for pairs of files that recur close together, and
// promote pairs whose support lands in a band — below min_support is
// noise, above max_support is the Zipf head that every cache already
// holds — into a bounded prefetch table the hot path reads.
//
// Three tables, all capped (PredictorParams::*_table_rows):
//   record   — per-connection recent history rows (LRU-evicted by last
//              touch when the cap is hit);
//   mining   — pair counters (a precedes b within lookahead_range on one
//              connection). When a mine pass finds the table at >= 3/4 of
//              its cap, every counter halves (flooring) and zeros are
//              erased, so stale pairs decay and free their rows under
//              pressure; while the table is full, *new* pairs are dropped
//              (counted), never blocked on.
//   prefetch — promoted associations, at most max_associations per
//              source file, FIFO-evicted by promotion order at the cap.
// Eviction is deterministic everywhere: same observation stream, same
// tables — the eviction-determinism test pins it.
//
// Not thread-safe: the PredictionService calls every member under its
// one mutex.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "predict/predictor_iface.h"

namespace prord::predict {

class MithrilMiner {
 public:
  explicit MithrilMiner(const PredictorParams& params);

  /// Records one observation: extends the connection's history row and
  /// bumps the pair counters for every earlier file within
  /// lookahead_range on the same connection.
  void observe(const Observation& obs);

  /// One mining pass: promotes banded pairs into the prefetch table,
  /// then ages the pair counters when the mining table is under pressure.
  /// Returns the number of associations promoted this pass.
  std::size_t mine();

  /// The prefetch-table row promoted for `source` (highest confidence
  /// first), or nullptr. Valid until the next observe()/mine().
  const std::vector<Association>* find(trace::FileId source) const {
    const auto it = prefetch_.find(source);
    return it == prefetch_.end() ? nullptr : &it->second;
  }

  // Occupancy (for PredictorStats).
  std::size_t record_rows() const noexcept { return records_.size(); }
  std::size_t mining_rows() const noexcept { return pairs_.size(); }
  std::size_t prefetch_rows() const noexcept { return prefetch_.size(); }
  /// Pairs never counted because the mining table was full.
  std::uint64_t pair_drops() const noexcept { return pair_drops_; }

 private:
  struct RecordRow {
    std::vector<trace::FileId> recent;  ///< newest last, <= lookahead_range
    std::list<std::uint32_t>::iterator lru_it;
  };

  static std::uint64_t pair_key(trace::FileId a, trace::FileId b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  void bump_pair(trace::FileId a, trace::FileId b);
  void promote(trace::FileId source, const Association& assoc);

  PredictorParams params_;

  // Record table: per-connection rows, LRU list front = most recent.
  std::unordered_map<std::uint32_t, RecordRow> records_;
  std::list<std::uint32_t> record_lru_;

  // Mining table: pair counts + per-source totals (for confidence).
  std::unordered_map<std::uint64_t, std::uint32_t> pairs_;
  std::unordered_map<trace::FileId, std::uint32_t> sources_;
  std::uint64_t pair_drops_ = 0;

  // Prefetch table: FIFO promotion order for deterministic eviction.
  std::unordered_map<trace::FileId, std::vector<Association>> prefetch_;
  std::list<trace::FileId> promote_order_;  ///< front = oldest promotion
  std::unordered_map<trace::FileId, std::list<trace::FileId>::iterator>
      promote_pos_;
};

}  // namespace prord::predict
