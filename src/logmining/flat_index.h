// Flat storage for mined state.
//
// The predictors, the bundle miner and the popularity tracker keep their
// counters in dense vectors: one record per owner (context, page, file)
// found through a FlatIndex, and variable-length per-owner lists (a
// context's successors, a page's embedded objects, a page's links) chained
// through one shared arena of ArenaEntry records. Copying, assigning or
// destroying a mined model is then a few vector copies with no per-entry
// allocation — the adaptation loop clones the serving model at every
// re-mine (docs/ADAPTATION.md).
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "trace/log_record.h"

namespace prord::logmining {

/// "No record": an empty index slot, a missing key, the end of a chain.
inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// One element of a per-owner list in a shared arena: `id` is the listed
/// file (successor page, embedded object, link target), `count` its
/// counter, `next` the arena index of the owner's next element.
struct ArenaEntry {
  trace::FileId id = trace::kInvalidFile;
  std::uint32_t next = kNoSlot;
  std::uint64_t count = 0;
};

/// Open-addressing (linear probing) map from a key to a dense record
/// index. Keys are never erased one by one: owners rebuild the index after
/// compacting their records.
template <typename Key>
class FlatIndex {
 public:
  /// Record index stored for `key`, or kNoSlot.
  std::uint32_t find(Key key) const noexcept {
    if (slots_.empty()) return kNoSlot;
    for (std::size_t i = bucket(key);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.value == kNoSlot || s.key == key) return s.value;
    }
  }

  /// Record index stored for `key`; stores `value` first if `key` is
  /// absent. The bool is true when it was.
  std::pair<std::uint32_t, bool> insert(Key key, std::uint32_t value) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    for (std::size_t i = bucket(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.value == kNoSlot) {
        s = Slot{key, value};
        ++size_;
        return {value, true};
      }
      if (s.key == key) return {s.value, false};
    }
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
    shift_ = 64;
  }

  std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    Key key{};
    std::uint32_t value = kNoSlot;
  };

  std::size_t mask() const noexcept { return slots_.size() - 1; }

  // Fibonacci hashing: the top bits of key * 2^64/phi. Dense file ids and
  // already-mixed context hashes both spread evenly.
  std::size_t bucket(Key key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
    slots_.assign(capacity, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& s : old) {
      if (s.value == kNoSlot) continue;
      std::size_t i = bucket(s.key);
      while (slots_[i].value != kNoSlot) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace prord::logmining
