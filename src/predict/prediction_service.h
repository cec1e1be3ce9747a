// PredictionService: the IPredictor (docs/PREDICTOR.md).
//
// One working state behind one mutex. Producers (each live distributor
// shard's event loop) feed through their links, and feed() applies the
// observation in place on the caller's thread:
//
//   * kPrordGraph — observations become observe_transition() calls on a
//     private working MiningModel (per-connection context rows, main
//     pages only, exactly the Prord policy's online-update rule). The
//     graph is bounded by aging: each periodic pass halves the counters
//     while num_entries exceeds mining_table_rows.
//   * kMithril — observations feed the MithrilMiner's bounded tables; each
//     periodic pass runs mine(), promoting banded pairs.
//
// The periodic pass runs inline, in the feed() whose t_us reaches the
// next mine_interval_us boundary. associations() reads the working state
// under the same mutex, so a feed is visible to the next query from any
// link, and the service is deterministic for a given feed order.
//
// Lifetime: the service must outlive every link it hands out.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "logmining/mining_model.h"
#include "predict/mithril.h"
#include "predict/predictor_iface.h"

namespace prord::predict {

class PredictionService final : public IPredictor {
 public:
  /// `warm_start` (may be null) seeds the PRORD-graph backend with an
  /// offline-mined model; the service learns on a private clone and never
  /// touches the caller's object again. Mithril ignores it.
  PredictionService(const PredictorParams& params,
                    const std::shared_ptr<logmining::MiningModel>& warm_start);

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  std::shared_ptr<IPredictorLink> register_link() override;
  PredictorStats stats() const override;
  const PredictorParams& params() const override { return params_; }

 private:
  class Link;

  struct HistoryRow {
    std::vector<trace::FileId> pages;
    std::list<std::uint32_t>::iterator lru_it;
  };

  void feed(const Observation& obs);
  std::vector<Association> associations(std::span<const trace::FileId> ctx,
                                        std::size_t k);
  void apply_locked(const Observation& obs);  // mu_ held
  void mine_locked();                         // mu_ held

  const PredictorParams params_;
  const std::size_t history_cap_;  ///< graph context length per connection
  const std::int64_t interval_us_;  ///< mine_interval_us, at least 1

  // Working state, all guarded by mu_.
  mutable std::mutex mu_;
  std::unique_ptr<logmining::MiningModel> working_;  ///< graph backend
  std::unique_ptr<MithrilMiner> miner_;              ///< mithril backend
  std::unordered_map<std::uint32_t, HistoryRow> history_;
  std::list<std::uint32_t> history_lru_;  ///< front = most recently fed
  std::int64_t next_pass_us_;             ///< feed-clock pass boundary
  std::uint64_t feeds_ = 0;
  std::uint64_t mine_passes_ = 0;
  std::uint64_t predictions_ = 0;

  std::atomic<std::size_t> links_{0};
};

}  // namespace prord::predict
