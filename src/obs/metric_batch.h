// Batched counter updates for hot-path metrics.
//
// The workload player bumps half a dozen counters per request; routing each
// bump through MetricRegistry costs a canonical-key build plus a map probe.
// MetricBatch interns each (name, labels) series once, hands back a dense
// integer handle, and accumulates deltas in a flat array; flush() folds the
// pending deltas into the owned registry in registration order. With an
// epoch-sized flush interval the per-request cost is one array add.
//
// Determinism: every series is upserted (delta 0) at registration time, so
// the exported series set is identical whether a counter was ever hit; flush
// order is registration order, and counter addition is associative over
// doubles that are whole counts, so the final values are byte-identical to
// per-request MetricRegistry::counter_add updates (metric_batch_test pins
// this against a registry fed the same stream).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metric_registry.h"

namespace prord::obs {

class MetricBatch {
 public:
  using Handle = std::uint32_t;

  /// Interns a counter series and returns its handle. Upserts the series
  /// immediately (value += 0) so it exports even if never incremented.
  Handle counter(std::string name, Labels labels, std::string help = {});

  /// Adds `delta` to the counter behind `h` (pending until flush).
  void add(Handle h, double delta = 1.0) {
    ++adds_;
    cells_[h].pending += delta;
  }

  /// Folds all pending deltas into the registry, in registration order.
  void flush();

  MetricRegistry& registry() noexcept { return registry_; }
  const MetricRegistry& registry() const noexcept { return registry_; }

  std::uint64_t adds() const noexcept { return adds_; }
  std::uint64_t flushes() const noexcept { return flushes_; }
  /// Sum of not-yet-flushed deltas (tests assert 0 after the final flush).
  double pending_total() const noexcept;

 private:
  struct Cell {
    std::string name;
    Labels labels;
    double pending = 0.0;
  };

  std::vector<Cell> cells_;
  MetricRegistry registry_;
  std::uint64_t adds_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace prord::obs
