// Predictor-as-a-service interface (docs/PREDICTOR.md).
//
// PRORD's "proactive" claim needs a prediction seam the live socket path
// can share across shards: consumers (a distributor shard, a test thread)
// *register a link* with a predictor, *feed* the requests they route
// through it, and *pull* ranked associations when they want to prefetch.
// The algorithm backends (the paper's n-order path graph, Mithril-style
// association mining) are swappable behind one interface.
//
// Contract:
//   * feed() applies the observation in place, on the caller's thread,
//     under the service's one mutex (the paper's per-request "dynamic
//     on-line tracking"). It never drops and is visible to the very next
//     associations() call, from any link.
//   * associations() reads the same working state under the same mutex.
//   * The periodic pass (graph: the mining_table_rows aging bound;
//     Mithril: promotion into the prefetch table) runs inline, in the
//     feed() whose Observation::t_us crosses the next mine_interval_us
//     boundary — the feed clock, not a timer thread.
//   * Links are handles: any thread may feed or query through any link.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "trace/log_record.h"

namespace prord::logmining {
class MiningModel;
}

namespace prord::predict {

/// Algorithm backend selector.
enum class Algo : std::uint8_t {
  /// The paper's n-order dependency-graph predictor (Algorithms 1 & 2),
  /// adapted from src/logmining — sequence-aware, per-connection context.
  kPrordGraph = 0,
  /// Mithril-style association mining: paired sampled history feeding a
  /// bounded mining table; pairs whose support lands in
  /// [min_support, max_support] are promoted to a bounded prefetch table.
  kMithril = 1,
};

const char* algo_name(Algo algo) noexcept;

/// Everything a deployment tunes, in one struct (the dbsp
/// PredictorParams shape): lookahead range, support band, confidence,
/// and bounded mining/prefetch/record table sizes so memory is capped by
/// construction.
struct PredictorParams {
  Algo algo = Algo::kPrordGraph;

  /// PRORD-graph: candidate-path order (Fig. 3 uses 2).
  unsigned order = 2;
  /// Mithril: how far apart two requests on one connection may be (in
  /// intervening requests) and still count as an associated pair.
  std::size_t lookahead_range = 4;
  /// Mithril support band: a pair must be seen at least min_support
  /// times to be promoted; a *source* page seen more than max_support
  /// times stops mining new pairs (the head of the Zipf curve is already
  /// cached everywhere — mining it only burns table rows).
  std::uint32_t min_support = 2;
  std::uint32_t max_support = 4096;
  /// Minimum confidence for a consumer to act on an association
  /// (Algorithm 2's Threshold for the graph backend; pair-count /
  /// source-count for Mithril).
  double confidence = 0.4;

  // Bounded-memory caps. Tables never exceed these row counts; insertion
  // beyond a cap evicts deterministically (see docs/PREDICTOR.md).
  std::size_t record_table_rows = 8192;   ///< per-connection history rows
  std::size_t mining_table_rows = 16384;  ///< candidate pair counters
  std::size_t prefetch_table_rows = 4096; ///< promoted associations
  /// Associations retained per source page in the prefetch table.
  std::size_t max_associations = 4;

  /// Cadence of the periodic pass on the feed clock: a pass runs inline
  /// in the feed() whose t_us reaches the next multiple of this interval.
  std::int64_t mine_interval_us = 20'000;
};

/// One fed event: a request the consumer finished routing/serving.
struct Observation {
  std::uint32_t conn = 0;           ///< persistent-connection id
  trace::FileId file = trace::kInvalidFile;
  bool main_page = true;            ///< false for embedded objects
  std::int64_t t_us = 0;            ///< feed clock; paces the periodic pass
};

/// One ranked association: "given the context, `file` comes next with
/// this confidence".
struct Association {
  trace::FileId file = trace::kInvalidFile;
  double confidence = 0.0;
};

/// Service-wide statistics snapshot (metrics surface).
struct PredictorStats {
  std::uint64_t feeds = 0;         ///< observations applied
  std::uint64_t mine_passes = 0;   ///< periodic passes completed
  std::uint64_t predictions = 0;   ///< associations() calls answered
  std::size_t links = 0;           ///< currently registered links
  // Bounded-table occupancy (rows in use; caps are in PredictorParams).
  std::size_t record_rows = 0;
  std::size_t mining_rows = 0;
  std::size_t prefetch_rows = 0;
};

/// The handle a consumer gets after registering; dropping the last
/// shared_ptr unregisters it.
class IPredictorLink {
 public:
  virtual ~IPredictorLink() = default;

  /// Applies one observation in place (see the contract above).
  virtual void feed(const Observation& obs) = 0;

  /// Top-k associations for a context (most recent file last), highest
  /// confidence first.
  virtual std::vector<Association> associations(
      std::span<const trace::FileId> context, std::size_t k) = 0;
};

/// The shared prediction service: owns the algorithm backend's working
/// state; every link feeds and reads it.
class IPredictor {
 public:
  virtual ~IPredictor() = default;

  /// Registers a consumer. Thread-safe.
  virtual std::shared_ptr<IPredictorLink> register_link() = 0;

  /// No-ops: the service has no thread to start or join. Kept so callers
  /// may bracket a run the same way they bracket its other components.
  void start() {}
  void stop() {}

  virtual PredictorStats stats() const = 0;
  virtual const PredictorParams& params() const = 0;
};

/// Factory over the algorithm backends. `warm_start` (optional) seeds the
/// PRORD-graph backend with an offline-mined model; Mithril ignores it.
std::unique_ptr<IPredictor> make_prediction_service(
    const PredictorParams& params,
    std::shared_ptr<logmining::MiningModel> warm_start = nullptr);

}  // namespace prord::predict
