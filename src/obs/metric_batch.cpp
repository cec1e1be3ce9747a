#include "obs/metric_batch.h"

#include <utility>

namespace prord::obs {

MetricBatch::Handle MetricBatch::counter(std::string name, Labels labels,
                                         std::string help) {
  const Handle h = static_cast<Handle>(cells_.size());
  if (!help.empty()) registry_.set_help(name, std::move(help));
  // Upsert now so the series exists (at zero) even if never incremented —
  // the export must not depend on whether any request took this path.
  registry_.counter_add(name, labels, 0.0);
  cells_.push_back(Cell{std::move(name), std::move(labels), 0.0});
  return h;
}

void MetricBatch::flush() {
  ++flushes_;
  for (Cell& c : cells_) {
    if (c.pending == 0.0) continue;
    registry_.counter_add(c.name, c.labels, c.pending);
    c.pending = 0.0;
  }
}

double MetricBatch::pending_total() const noexcept {
  double sum = 0.0;
  for (const Cell& c : cells_) sum += c.pending;
  return sum;
}

}  // namespace prord::obs
