// Predictor-as-a-service interface (docs/PREDICTOR.md).
//
// PRORD's "proactive" claim needs a prediction seam both the simulated
// dispatcher and the live socket path can share: consumers (a policy, a
// distributor shard, a worker thread) *register a link* with a predictor,
// *feed* observations through it without ever blocking, and *pull* ranked
// associations when they want to prefetch. All synchronization lives
// behind the link — the Mithril/dbsp IPredictorLink shape — so algorithm
// backends (the paper's n-order path graph, Mithril-style association
// mining, future PPE keyword rules) are swappable and A/B-able behind one
// interface.
//
// Contract:
//   * feed() never blocks the caller. A full feed queue drops the
//     observation and returns false; drops are counted, not stalled.
//   * best()/associations() read the most recently *published* model
//     snapshot — a feed is not guaranteed visible until the service's
//     mining pass has drained it and published (threads = 0 collapses
//     this to synchronous apply, which the sim path uses for
//     determinism).
//   * One link is one producer: feed() is single-threaded per link
//     (register one link per producing thread); best()/associations()
//     may be called from any thread.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
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
  /// Minimum confidence for best() to emit a prediction (Algorithm 2's
  /// Threshold for the graph backend; pair-count / source-count for
  /// Mithril).
  double confidence = 0.4;

  // Bounded-memory caps. Tables never exceed these row counts; insertion
  // beyond a cap evicts deterministically (see docs/PREDICTOR.md).
  std::size_t record_table_rows = 8192;   ///< per-connection history rows
  std::size_t mining_table_rows = 16384;  ///< candidate pair counters
  std::size_t prefetch_table_rows = 4096; ///< promoted associations
  /// Associations retained per source page in the prefetch table.
  std::size_t max_associations = 4;

  /// Per-link feed queue capacity; a full queue drops (never blocks).
  std::size_t feed_queue_capacity = 4096;
  /// Mining-thread cadence: the background thread mines once per
  /// interval, however many observations are queued; mine_now() forces
  /// a pass.
  std::int64_t mine_interval_us = 20'000;

  /// 0 = synchronous: no background thread, feed() applies immediately
  /// and publishes inline — the deterministic mode the sim dispatcher
  /// and the unit tests use. 1 = one background mining thread (the live
  /// cluster). Values > 1 are reserved.
  unsigned threads = 1;
};

/// One fed event: a request the consumer finished routing/serving.
struct Observation {
  std::uint32_t conn = 0;           ///< persistent-connection id
  trace::FileId file = trace::kInvalidFile;
  bool main_page = true;            ///< false for embedded objects
  std::int64_t t_us = 0;            ///< consumer clock (wall or sim)
};

/// One ranked association: "given the context, `file` comes next with
/// this confidence".
struct Association {
  trace::FileId file = trace::kInvalidFile;
  double confidence = 0.0;
};

/// Service-wide statistics snapshot (metrics surface).
struct PredictorStats {
  std::uint64_t feeds = 0;         ///< observations accepted
  std::uint64_t drops = 0;         ///< observations dropped (queue full)
  std::uint64_t mine_passes = 0;   ///< mining passes completed
  std::uint64_t publishes = 0;     ///< model snapshots published
  std::uint64_t predictions = 0;   ///< best()/associations() calls answered
  std::size_t links = 0;           ///< currently registered links
  // Bounded-table occupancy (rows in use; caps are in PredictorParams).
  std::size_t record_rows = 0;
  std::size_t mining_rows = 0;
  std::size_t prefetch_rows = 0;
};

/// The handle a consumer gets after registering. All synchronization is
/// hidden behind it; dropping the last shared_ptr unregisters.
class IPredictorLink {
 public:
  virtual ~IPredictorLink() = default;

  /// Feeds one observation. Never blocks; returns false when the
  /// observation was dropped (bounded queue full). Single producer per
  /// link.
  virtual bool feed(const Observation& obs) = 0;

  /// Best next-file guess for a context (most recent file last), or
  /// nullopt when nothing clears `min_confidence`. Reads the published
  /// snapshot — wait-free with respect to the mining thread.
  virtual std::optional<Association> best(
      std::span<const trace::FileId> context, double min_confidence) = 0;

  /// Top-k associations for a context, highest confidence first.
  virtual std::vector<Association> associations(
      std::span<const trace::FileId> context, std::size_t k) = 0;
};

/// The shared prediction service. Threads register links; the service
/// owns the algorithm backend, the mining thread, and the double-buffered
/// model publication.
class IPredictor {
 public:
  virtual ~IPredictor() = default;

  /// Registers a consumer. `name` labels the link in stats/flight dumps.
  /// Thread-safe; links may register and unregister while mining runs.
  virtual std::shared_ptr<IPredictorLink> register_link(std::string name) = 0;

  /// Starts the background mining thread (no-op when threads == 0).
  virtual void start() = 0;
  /// Drains, stops and joins (idempotent).
  virtual void stop() = 0;

  /// Synchronous drain-and-mine: applies every queued observation and
  /// publishes. The deterministic path for tests and threads == 0 users;
  /// also safe to call while the background thread runs (serialized with
  /// its passes).
  virtual void mine_now() = 0;

  virtual PredictorStats stats() const = 0;
  virtual const PredictorParams& params() const = 0;
};

/// Factory over the algorithm backends. `warm_start` (optional) seeds the
/// PRORD-graph backend with an offline-mined model; Mithril ignores it.
std::unique_ptr<IPredictor> make_prediction_service(
    const PredictorParams& params,
    std::shared_ptr<logmining::MiningModel> warm_start = nullptr);

}  // namespace prord::predict
