// Pending-event set for the discrete-event simulator.
//
// A three-level timing wheel keyed on SimTime. Leaf buckets are 1 us
// wide, so every bucket list holds exactly one timestamp and plain FIFO
// append yields (time, sequence) dispatch order. Higher levels cover
// ~2 ms and ~4.3 s windows; events beyond the wheel span wait in a small
// overflow heap and cascade down as the clock reaches their window.
// Push/pop/cancel are O(1) amortized, nodes come from a freelist pool
// (util::FixedPool), and occupancy bitmaps make empty regions skippable
// at one ctz per 64 buckets. Pushes below the current clock (live-mode
// horizon replays, fuzz tests) land in a "past" mini-heap that is always
// drained first, so time order holds even for non-monotone pushes.
//
// The sequence number makes simultaneous events fire in scheduling order,
// which keeps runs deterministic. tests/simcore/event_queue_equivalence_test
// pins that order against an ordered model keyed on (time, push order).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "simcore/sim_time.h"
#include "util/inplace_function.h"
#include "util/pool.h"

namespace prord::sim {

/// Inline capacity for event closures. Sized so the deepest model closure
/// chain (backend serve -> respond -> finish -> player completion) stays
/// on the node; bench_perf's allocations/event metric regresses loudly if
/// a hot closure outgrows it.
inline constexpr std::size_t kEventFnInlineBytes = 152;

using EventFn = util::InplaceFunction<void(), kEventFnInlineBytes>;

/// Handle for cancelling a scheduled event. Cancellation is lazy: the slot
/// is marked dead and reclaimed when the clock reaches it.
struct EventHandle {
  std::uint64_t seq = 0;
  void* node = nullptr;  ///< wheel node
  bool valid() const noexcept { return seq != 0; }
};

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at`. Returns a cancellation handle.
  EventHandle push(SimTime at, EventFn fn);

  /// Cancels a previously scheduled event. Returns true if the event was
  /// still pending. O(1); space is reclaimed when the clock passes it.
  bool cancel(EventHandle h);

  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept { return live_; }

  /// Time of the earliest live event; queue must be non-empty.
  SimTime next_time();

  /// Pops and returns the earliest live event. Queue must be non-empty.
  /// Returns the event's time through `at`.
  EventFn pop(SimTime& at);

 private:
  static constexpr int kBits = 11;                 // 2048 buckets per level
  static constexpr int kLevels = 3;
  static constexpr int kBucketsPerLevel = 1 << kBits;
  static constexpr std::uint64_t kIndexMask = kBucketsPerLevel - 1;
  static constexpr int kWords = kBucketsPerLevel / 64;

  struct Node {
    SimTime at = 0;
    std::uint64_t seq = 0;  // 0 == dead (cancelled or fired)
    Node* next = nullptr;
    EventFn fn;
  };

  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  Bucket& bucket(int level, int idx) noexcept {
    return buckets_[static_cast<std::size_t>(level) * kBucketsPerLevel +
                    static_cast<std::size_t>(idx)];
  }

  static int level_index(SimTime at, int level) noexcept {
    return static_cast<int>(
        (static_cast<std::uint64_t>(at) >> (level * kBits)) & kIndexMask);
  }
  /// True when `at` falls inside the level's current window around cur_.
  bool in_window(SimTime at, int level) const noexcept {
    return (at >> ((level + 1) * kBits)) == (cur_ >> ((level + 1) * kBits));
  }

  void place(Node* n);
  void append(int level, int idx, Node* n);
  void cascade(int level, int idx);
  void drain_overflow();
  void settle();
  void free_node(Node* n);
  int scan_bits(int level, int from) const noexcept;
  Node* find_min(bool take);

  // Pool slots outlive the nodes released into them, so cancel() can
  // read a stale handle's node and reject it by sequence number.
  util::FixedPool<Node> node_pool_{1024};
  std::vector<Bucket> buckets_;  // kLevels * kBucketsPerLevel
  std::array<std::array<std::uint64_t, kWords>, kLevels> bits_{};
  std::vector<Node*> past_;      // min-heap: pushes below cur_
  std::vector<Node*> overflow_;  // min-heap: beyond the wheel span
  SimTime cur_ = 0;              // wheel clock: max time handed out so far
  SimTime l1_block_ = 0;         // cur_ >> kBits at last L1 cascade
  SimTime l2_block_ = 0;         // cur_ >> 2*kBits at last L2 cascade
  SimTime top_block_ = 0;        // cur_ >> 3*kBits at last overflow drain
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace prord::sim
