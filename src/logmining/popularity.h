// Popularity ranking (Section 3.2).
//
// The paper uses a two-fold system: offline analysis of historical logs
// plus dynamic online tracking of page hits. We implement that as a decayed
// hit counter: offline counts seed the table, online hits add with
// exponential decay so "the recent history" (Algorithm 3) dominates.
//
// The counters live in flat storage (logmining/flat_index.h): one dense
// entry per file, so a copy is a few vector copies, which the adaptation
// loop makes at every re-mine.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "logmining/flat_index.h"
#include "simcore/sim_time.h"
#include "trace/workload.h"

namespace prord::logmining {

struct RankEntry {
  trace::FileId file = trace::kInvalidFile;
  double rank = 0.0;  ///< decayed hit count
};

class PopularityTracker {
 public:
  /// `halflife` controls decay of online hits; 0 disables decay (pure
  /// cumulative counting, which is what the offline pass uses).
  explicit PopularityTracker(sim::SimTime halflife = sim::sec(600.0));

  /// Offline seeding from a historical request stream.
  void seed(std::span<const trace::Request> requests);

  /// Online hit at simulated time `now`.
  void record_hit(trace::FileId file, sim::SimTime now);

  /// Current decayed rank of a file at time `now`.
  double rank(trace::FileId file, sim::SimTime now) const;

  /// Rank table sorted by rank descending (Algorithm 3 step (i)). A full
  /// sort: top_rank_table's fallback and the reference its tests compare
  /// against.
  std::vector<RankEntry> rank_table(sim::SimTime now) const;

  /// Fills `out` with the first `k` rows of rank_table(now): the same
  /// files in the same order with bitwise-equal ranks. `out` is cleared
  /// first; callers reuse it across planning rounds.
  ///
  /// Incremental and exact. Each entry has the time-invariant key
  /// log2(value) + stamp/halflife (log2(value) without decay), and
  /// decayed(e, now) = 2^(key - now/halflife) whenever now >= stamp, so
  /// rank order is key order. seed() and record_hit() only raise keys.
  /// A call keeps the *band* — the entries whose key is within a small
  /// margin of the k-th largest — and the next call with the same `k`
  /// re-selects from that band plus the entries touched since: no other
  /// entry's key moved, so none can enter. Only the new band pays for
  /// decayed() and the sort. The first call, a new `k`, and any call
  /// after age(), load(), copy or move rescan the whole table. A query
  /// time before some stamp and a k-th rank near the underflow range take
  /// rank_table's full sort instead.
  void top_rank_table(sim::SimTime now, std::size_t k,
                      std::vector<RankEntry>& out);

  std::size_t num_files() const noexcept { return entries_.size(); }

  /// Multiplies every counter by `keep_fraction` in (0, 1] and drops
  /// entries whose value becomes negligible; `rank`'s own timestamp
  /// decay is unaffected. For callers that snapshot a tracker across
  /// model generations and want bulk forgetting without a timestamp.
  void age(double keep_fraction);

  /// Serializes the decayed counters (values + timestamps).
  void save(std::ostream& out) const;

  /// Restores counters saved with the same halflife configuration.
  /// All-or-nothing: the stream is parsed into a staging table and only
  /// swapped in when it is complete and well-formed, so a false return
  /// (malformed input or halflife mismatch) leaves the tracker exactly as
  /// it was.
  bool load(std::istream& in);

 private:
  struct Entry {
    trace::FileId file = trace::kInvalidFile;
    bool touched = false;  ///< queued in band_.touched
    double value = 0.0;
    sim::SimTime stamp = 0;
  };
  struct Slot {
    std::uint32_t entry;  ///< entries_ position
    double key;
  };
  /// top_rank_table's state between calls. It indexes entries_, so a
  /// copied or moved tracker (and the moved-from one) starts empty and
  /// rescans. While k != 0, an entry is flagged touched exactly when it
  /// is in `touched`.
  struct Band {
    std::size_t k = 0;  ///< 0: no band, the next call rescans
    double kth_key = 0.0;
    std::vector<Slot> slots;  ///< key descending, file ascending
    std::vector<std::uint32_t> touched;  ///< entries_ positions
    std::vector<Slot> merged;  ///< scratch for re-sorting `slots`

    Band() = default;
    Band(const Band&) noexcept {}
    Band(Band&& other) noexcept { other.clear(); }
    Band& operator=(const Band&) noexcept {
      clear();
      return *this;
    }
    Band& operator=(Band&& other) noexcept {
      clear();
      other.clear();
      return *this;
    }
    void clear() noexcept {
      k = 0;
      slots.clear();
      touched.clear();
    }
  };

  double decayed(const Entry& e, sim::SimTime now) const;
  /// entries_ position of `file`'s entry, added at zero if new.
  std::uint32_t entry_of(trace::FileId file);
  void touch(std::uint32_t entry);
  bool refresh_band(std::size_t k);

  sim::SimTime halflife_;
  sim::SimTime max_stamp_ = 0;  ///< no entry's stamp is later
  FlatIndex<trace::FileId> index_;  ///< file -> entries_ position
  std::vector<Entry> entries_;
  Band band_;
};

}  // namespace prord::logmining
