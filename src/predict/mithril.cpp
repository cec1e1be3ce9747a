#include "predict/mithril.h"

#include <algorithm>
#include <iterator>

namespace prord::predict {
namespace {

/// Row ordering: highest confidence first, FileId ascending on ties — the
/// deterministic rank the eviction test pins.
bool assoc_less(const Association& a, const Association& b) {
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  return a.file < b.file;
}

}  // namespace

MithrilMiner::MithrilMiner(const PredictorParams& params) : params_(params) {}

void MithrilMiner::observe(const Observation& obs) {
  if (obs.file == trace::kInvalidFile) return;

  auto it = records_.find(obs.conn);
  if (it == records_.end()) {
    if (records_.size() >= params_.record_table_rows && !record_lru_.empty()) {
      const std::uint32_t victim = record_lru_.back();
      record_lru_.pop_back();
      records_.erase(victim);
    }
    record_lru_.push_front(obs.conn);
    it = records_.emplace(obs.conn, RecordRow{{}, record_lru_.begin()}).first;
  } else {
    record_lru_.splice(record_lru_.begin(), record_lru_, it->second.lru_it);
  }

  RecordRow& row = it->second;
  for (const trace::FileId prior : row.recent) bump_pair(prior, obs.file);

  // Source occurrence: the confidence denominator for pairs mined out of
  // this file. Bounded by the same cap as the pair table; an untracked
  // source simply never promotes (no denominator, no confidence).
  auto sit = sources_.find(obs.file);
  if (sit != sources_.end()) {
    ++sit->second;
  } else if (sources_.size() < params_.mining_table_rows) {
    sources_.emplace(obs.file, 1u);
  }

  row.recent.push_back(obs.file);
  if (row.recent.size() > params_.lookahead_range)
    row.recent.erase(row.recent.begin());
}

void MithrilMiner::bump_pair(trace::FileId a, trace::FileId b) {
  if (a == b) return;
  // The Zipf head: once a source crosses max_support it stops minting new
  // pairs — every cache already holds what follows the home page.
  const auto sit = sources_.find(a);
  if (sit != sources_.end() && sit->second > params_.max_support) return;
  const std::uint64_t key = pair_key(a, b);
  const auto it = pairs_.find(key);
  if (it != pairs_.end()) {
    ++it->second;
    return;
  }
  if (pairs_.size() >= params_.mining_table_rows) {
    ++pair_drops_;
    return;
  }
  pairs_.emplace(key, 1u);
}

std::size_t MithrilMiner::mine() {
  // Sorted candidate list: unordered_map iteration order must never leak
  // into the promoted rows (the determinism contract). Sorting by key also
  // groups every pair sharing a source, so each row rebuilds in one run.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> cands;
  cands.reserve(pairs_.size());
  for (const auto& [key, count] : pairs_)
    if (count >= params_.min_support) cands.emplace_back(key, count);
  std::sort(cands.begin(), cands.end());

  std::size_t promoted = 0;
  std::size_t i = 0;
  while (i < cands.size()) {
    const auto source = static_cast<trace::FileId>(cands[i].first >> 32);
    std::vector<Association> row;
    for (; i < cands.size() &&
           static_cast<trace::FileId>(cands[i].first >> 32) == source;
         ++i) {
      const auto dest =
          static_cast<trace::FileId>(cands[i].first & 0xffffffffu);
      const auto sit = sources_.find(source);
      if (sit == sources_.end() || sit->second == 0 ||
          sit->second > params_.max_support)
        continue;
      const double conf = std::min(
          1.0, static_cast<double>(cands[i].second) /
                   static_cast<double>(sit->second));
      row.push_back(Association{dest, conf});
    }
    if (row.empty()) continue;
    std::sort(row.begin(), row.end(), assoc_less);
    if (row.size() > params_.max_associations)
      row.resize(params_.max_associations);
    promoted += row.size();
    for (const Association& assoc : row) promote(source, assoc);
  }

  // Pressure-based aging: halve-and-erase only when the pair table nears
  // its cap, so short runs keep their support but a saturated table always
  // frees rows for the next window.
  if (pairs_.size() * 4 >= params_.mining_table_rows * 3) {
    for (auto it = pairs_.begin(); it != pairs_.end();) {
      it->second /= 2;
      it = (it->second == 0) ? pairs_.erase(it) : std::next(it);
    }
    for (auto it = sources_.begin(); it != sources_.end();) {
      it->second /= 2;
      it = (it->second == 0) ? sources_.erase(it) : std::next(it);
    }
  }
  return promoted;
}

void MithrilMiner::promote(trace::FileId source, const Association& assoc) {
  auto it = prefetch_.find(source);
  if (it == prefetch_.end()) {
    if (prefetch_.size() >= params_.prefetch_table_rows &&
        !promote_order_.empty()) {
      // FIFO by first promotion: the oldest row leaves, deterministically.
      const trace::FileId victim = promote_order_.front();
      promote_order_.pop_front();
      promote_pos_.erase(victim);
      prefetch_.erase(victim);
    }
    promote_order_.push_back(source);
    promote_pos_[source] = std::prev(promote_order_.end());
    it = prefetch_.emplace(source, std::vector<Association>{}).first;
  }
  auto& row = it->second;
  const auto pos =
      std::find_if(row.begin(), row.end(), [&](const Association& existing) {
        return existing.file == assoc.file;
      });
  if (pos != row.end())
    pos->confidence = assoc.confidence;
  else
    row.push_back(assoc);
  std::sort(row.begin(), row.end(), assoc_less);
  if (row.size() > params_.max_associations)
    row.resize(params_.max_associations);
}

}  // namespace prord::predict
