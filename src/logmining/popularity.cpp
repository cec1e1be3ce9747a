#include "logmining/popularity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <iterator>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>

namespace prord::logmining {
namespace {

/// Rank descending, file ascending: a total order, so every prefix of the
/// sorted table is unique.
bool rank_before(const RankEntry& a, const RankEntry& b) {
  return a.rank != b.rank ? a.rank > b.rank : a.file < b.file;
}

// Rounding bound behind the band margin. Values are positive and at most
// 2^100 (hits add 1 and stall at 2^53; refresh_band checks loaded ones),
// so |log2(value)| <= 1075, and a log2 accurate to an ulp, one division
// and one addition keep a computed key within 2^-50 * (1075 + |key|) of
// the exact one. When the exp2 factor inside decayed() is normal
// (|exponent| <= 1022), the computed rank is within 2^-42 of
// 2^(key - now/halflife) in log2 units. An entry whose key is more than
//   2 * 2^-50 * (1075 + |K|) + 2 * 2^-42  <  2^-38 * (1 + |K|)
// below the k-th key K therefore has a smaller rank than each of the k
// entries keyed at or above K (the slack in |key| at the far entry only
// widens its gap). The margin below adds a factor of 64, and K - margin(K)
// rises with K, so a band cut after keys only grew still covers every
// entry cut before. If the exp2 factor underflowed, the rank is below
// 2^100 * 2^-1022 = 2^-922: a k-th rank at or above kMinBandRank means
// the k rows above the cut all had a normal exp2 factor.
double band_margin(double kth_key) {
  return 0x1p-32 * (1.0 + std::fabs(kth_key));
}
constexpr double kMinBandRank = 0x1p-900;
constexpr double kMaxBandValue = 0x1p100;

}  // namespace

PopularityTracker::PopularityTracker(sim::SimTime halflife)
    : halflife_(halflife) {
  if (halflife < 0)
    throw std::invalid_argument("PopularityTracker: negative halflife");
}

double PopularityTracker::decayed(const Entry& e, sim::SimTime now) const {
  if (halflife_ == 0 || now <= e.stamp) return e.value;
  const double dt = static_cast<double>(now - e.stamp);
  return e.value * std::exp2(-dt / static_cast<double>(halflife_));
}

void PopularityTracker::touch(Node& node) {
  if (band_.k == 0 || node.second.touched) return;
  node.second.touched = true;
  band_.touched.push_back(&node);
}

void PopularityTracker::seed(std::span<const trace::Request> requests) {
  for (const auto& req : requests) {
    auto& node = *entries_.try_emplace(req.file).first;
    node.second.value += 1.0;
    touch(node);
  }
}

void PopularityTracker::age(double keep_fraction) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0)
    throw std::invalid_argument("PopularityTracker: keep_fraction in (0, 1]");
  band_.clear();
  for (auto it = entries_.begin(); it != entries_.end();) {
    it->second.value *= keep_fraction;
    if (it->second.value < 1e-6)
      it = entries_.erase(it);
    else
      ++it;
  }
}

void PopularityTracker::record_hit(trace::FileId file, sim::SimTime now) {
  auto& node = *entries_.try_emplace(file).first;
  auto& e = node.second;
  e.value = decayed(e, now) + 1.0;
  e.stamp = std::max(e.stamp, now);
  max_stamp_ = std::max(max_stamp_, now);
  touch(node);
}

double PopularityTracker::rank(trace::FileId file, sim::SimTime now) const {
  const auto it = entries_.find(file);
  return it == entries_.end() ? 0.0 : decayed(it->second, now);
}

void PopularityTracker::save(std::ostream& out) const {
  out << "popularity " << halflife_ << ' ' << entries_.size() << '\n';
  std::map<trace::FileId, const Entry*> ordered;
  for (const auto& [file, e] : entries_) ordered.emplace(file, &e);
  // Decayed values round-trip bit-exactly as their IEEE-754 bit patterns.
  for (const auto& [file, e] : ordered)
    out << file << ' ' << std::bit_cast<std::uint64_t>(e->value) << ' '
        << e->stamp << '\n';
  out << "end\n";
}

bool PopularityTracker::load(std::istream& in) {
  std::string tag;
  sim::SimTime halflife = 0;
  std::size_t n = 0;
  if (!(in >> tag >> halflife >> n) || tag != "popularity" ||
      halflife != halflife_)
    return false;
  // Stage into a local table: every early return below must leave the
  // live counters untouched (the all-or-nothing contract in the header).
  std::unordered_map<trace::FileId, Entry> entries;
  sim::SimTime max_stamp = 0;
  entries.reserve(std::min<std::size_t>(n, 1u << 20));  // corrupt-count guard
  for (std::size_t i = 0; i < n; ++i) {
    trace::FileId file = 0;
    std::uint64_t value_bits = 0;
    Entry e;
    if (!(in >> file >> value_bits >> e.stamp)) return false;
    e.value = std::bit_cast<double>(value_bits);
    max_stamp = std::max(max_stamp, e.stamp);
    entries.emplace(file, e);
  }
  if (!(in >> tag) || tag != "end") return false;
  entries_ = std::move(entries);
  max_stamp_ = max_stamp;
  band_.clear();
  return true;
}

std::vector<RankEntry> PopularityTracker::rank_table(sim::SimTime now) const {
  std::vector<RankEntry> table;
  table.reserve(entries_.size());
  for (const auto& [file, e] : entries_)
    table.push_back(RankEntry{file, decayed(e, now)});
  std::sort(table.begin(), table.end(), rank_before);
  return table;
}

bool PopularityTracker::refresh_band(std::size_t k) {
  bool valid = true;
  const auto slot = [&](Node& node) {
    Entry& e = node.second;
    e.touched = false;
    valid &= e.value > 0.0 && e.value <= kMaxBandValue;
    double key = std::log2(e.value);
    if (halflife_ != 0)
      key += static_cast<double>(e.stamp) / static_cast<double>(halflife_);
    return Slot{&node, key};
  };
  // Key descending, file ascending: the band's order, which the rank
  // order of its rows nearly matches.
  const auto key_before = [](const Slot& a, const Slot& b) {
    return a.key != b.key ? a.key > b.key : a.node->first < b.node->first;
  };
  auto& slots = band_.slots;
  const bool incremental = band_.k == k;
  if (incremental) {
    // Replace the touched entries' stale slots with fresh ones, merged in.
    std::erase_if(slots, [](const Slot& s) { return s.node->second.touched; });
    const auto kept = static_cast<std::ptrdiff_t>(slots.size());
    for (Node* node : band_.touched) slots.push_back(slot(*node));
    std::sort(slots.begin() + kept, slots.end(), key_before);
    band_.merged.clear();
    std::merge(slots.begin(), slots.begin() + kept, slots.begin() + kept,
               slots.end(), std::back_inserter(band_.merged), key_before);
    slots.swap(band_.merged);
  } else {
    slots.clear();
    for (auto& node : entries_) slots.push_back(slot(node));
  }
  band_.touched.clear();
  if (!valid) return false;

  // Fewer than k slots only while the band is the whole table.
  double kth_key = -std::numeric_limits<double>::infinity();
  if (slots.size() >= k) {
    const auto kth = slots.begin() + static_cast<std::ptrdiff_t>(k - 1);
    if (!incremental)
      std::nth_element(slots.begin(), kth, slots.end(), key_before);
    kth_key = kth->key;
    // Exact keys never fall; a rounded one can, and then the entries left
    // out last time are no longer provably below the cut.
    if (incremental && kth_key < band_.kth_key) {
      band_.clear();
      return refresh_band(k);
    }
    const double cut = kth_key - band_margin(kth_key);
    const auto above = [cut](const Slot& s) { return s.key >= cut; };
    slots.erase(incremental ? std::partition_point(kth + 1, slots.end(), above)
                            : std::partition(kth + 1, slots.end(), above),
                slots.end());
  }
  if (!incremental) std::sort(slots.begin(), slots.end(), key_before);
  band_.k = k;
  band_.kth_key = kth_key;
  return true;
}

void PopularityTracker::top_rank_table(sim::SimTime now, std::size_t k,
                                       std::vector<RankEntry>& out) {
  out.clear();
  if (k == 0) return;
  if (!legacy_rank_selection() && now >= max_stamp_ && refresh_band(k)) {
    for (const Slot& s : band_.slots)
      out.push_back(RankEntry{s.node->first, decayed(s.node->second, now)});
    // Key order is rank order except among near-ties, so an insertion
    // sort finishes in about one pass where std::sort would not.
    for (auto it = out.begin(); it != out.end(); ++it) {
      const RankEntry row = *it;
      auto hole = it;
      for (; hole != out.begin() && rank_before(row, hole[-1]); --hole)
        *hole = hole[-1];
      *hole = row;
    }
    if (out.size() > k) out.resize(k);
    if (out.empty() || out.back().rank >= kMinBandRank) return;
  }
  // Full sort: the legacy baseline, and every case the band cannot vouch
  // for (ranks frozen at a stamp later than `now`, or near underflow, where
  // exp2 rounding creates ties the keys cannot see).
  band_.clear();
  auto table = rank_table(now);
  if (table.size() > k) table.resize(k);
  out = std::move(table);
}

}  // namespace prord::logmining
