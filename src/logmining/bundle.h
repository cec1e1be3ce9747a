// Bundle mining (Section 3.2 / [7]).
//
// A bundle is a main page plus the embedded objects the browser fetches
// with it. The miner counts (page, object) co-occurrences in the log and
// keeps objects that accompany the page often enough. PRORD uses bundles
// twice: the front-end forwards embedded-object requests to the back-end
// that served the page (no dispatcher contact), and the back-end prefetches
// a page's bundle into memory when the page is requested.
//
// Counters and bundles live in flat storage (logmining/flat_index.h): a
// copy is a few vector copies, which the adaptation loop makes at every
// re-mine.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "logmining/flat_index.h"
#include "trace/workload.h"

namespace prord::logmining {

class BundleMiner {
 public:
  /// `min_cooccurrence` is the fraction of a page's views an object must
  /// accompany to join the bundle.
  explicit BundleMiner(double min_cooccurrence = 0.5);

  /// Counts parent-attributed embedded fetches from a request stream.
  void observe(std::span<const trace::Request> requests);

  /// Finalizes bundles from the counters. Must be called after observe();
  /// may be called repeatedly as more data arrives.
  void finalize();

  /// Embedded objects bundled with `page` (empty if none). Valid after
  /// finalize().
  std::span<const trace::FileId> bundle_of(trace::FileId page) const;

  /// True if `object` is in `page`'s bundle.
  bool in_bundle(trace::FileId page, trace::FileId object) const;

  std::size_t num_bundles() const noexcept { return num_bundles_; }

  /// Total bytes of a bundle given a file-size oracle.
  std::uint64_t bundle_bytes(trace::FileId page,
                             const trace::FileTable& files) const;

  /// Serializes the co-occurrence counters (finalized bundles are derived
  /// state and rebuilt on load).
  void save(std::ostream& out) const;

  /// Restores counters saved by save() and re-finalizes. Returns false on
  /// malformed input, leaving the miner as it was.
  bool load(std::istream& in);

 private:
  /// A page's counters and its finalized bundle. Its embedded objects are
  /// chained through arena_ from `objects`, each with its co-occurrence
  /// count; the bundle is members_[bundle_begin, bundle_end).
  struct Page {
    trace::FileId page = trace::kInvalidFile;
    std::uint64_t views = 0;
    std::uint32_t objects = kNoSlot;
    std::uint32_t bundle_begin = 0;
    std::uint32_t bundle_end = 0;
  };

  Page& page_slot(trace::FileId page);
  void count_object(Page& page, trace::FileId object, std::uint64_t n);

  double min_cooccurrence_;
  FlatIndex<trace::FileId> index_;  ///< page -> pages_ position
  std::vector<Page> pages_;
  std::vector<ArenaEntry> arena_;       ///< every page's object counts
  std::vector<trace::FileId> members_;  ///< every bundle, each sorted
  std::size_t num_bundles_ = 0;
};

}  // namespace prord::logmining
