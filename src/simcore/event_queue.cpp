#include "simcore/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace prord::sim {

EventQueue::EventQueue()
    : buckets_(static_cast<std::size_t>(kLevels) * kBucketsPerLevel) {}

EventQueue::~EventQueue() {
  // Pool destruction destroys any still-constructed nodes (and their
  // closures); the side heaps and buckets only hold pointers into it.
}

namespace {
/// std::push_heap comparator: true when a fires after b, i.e. min-heap on
/// (time, sequence).
struct FiresAfter {
  template <typename NodePtr>
  bool operator()(const NodePtr* a, const NodePtr* b) const noexcept {
    return a->at != b->at ? a->at > b->at : a->seq > b->seq;
  }
};
}  // namespace

EventHandle EventQueue::push(SimTime at, EventFn fn) {
  assert(fn && "EventQueue::push: empty function");
  const std::uint64_t seq = next_seq_++;
  Node* n = node_pool_.acquire();
  n->at = at;
  n->seq = seq;
  n->next = nullptr;
  n->fn = std::move(fn);
  place(n);
  ++live_;
  return EventHandle{seq, n};
}

bool EventQueue::cancel(EventHandle h) {
  if (!h.valid()) return false;
  Node* n = static_cast<Node*>(h.node);
  if (!n || n->seq != h.seq) return false;  // fired, cancelled, or reused
  n->seq = 0;  // dead; the list/heap entry is reclaimed lazily
  n->fn = nullptr;  // drop captures now, not when the clock passes it
  --live_;
  return true;
}

SimTime EventQueue::next_time() {
  Node* n = find_min(/*take=*/false);
  if (!n) throw std::logic_error("EventQueue::next_time: empty");
  return n->at;
}

EventFn EventQueue::pop(SimTime& at) {
  Node* n = find_min(/*take=*/true);
  if (!n) throw std::logic_error("EventQueue::pop: empty");
  at = n->at;
  EventFn fn = std::move(n->fn);
  if (at > cur_) cur_ = at;
  --live_;
  free_node(n);
  return fn;
}

void EventQueue::place(Node* n) {
  if (n->at < cur_) {
    past_.push_back(n);
    std::push_heap(past_.begin(), past_.end(), FiresAfter{});
    return;
  }
  for (int level = 0; level < kLevels; ++level) {
    if (in_window(n->at, level)) {
      append(level, level_index(n->at, level), n);
      return;
    }
  }
  overflow_.push_back(n);
  std::push_heap(overflow_.begin(), overflow_.end(), FiresAfter{});
}

void EventQueue::append(int level, int idx, Node* n) {
  Bucket& b = bucket(level, idx);
  n->next = nullptr;
  if (b.tail) {
    b.tail->next = n;
    b.tail = n;
  } else {
    b.head = b.tail = n;
    bits_[static_cast<std::size_t>(level)][static_cast<std::size_t>(idx) / 64] |=
        1ULL << (static_cast<std::size_t>(idx) % 64);
  }
}

void EventQueue::free_node(Node* n) {
  n->seq = 0;
  node_pool_.release(n);
}

void EventQueue::cascade(int level, int idx) {
  Bucket& b = bucket(level, idx);
  Node* n = b.head;
  b.head = b.tail = nullptr;
  bits_[static_cast<std::size_t>(level)][static_cast<std::size_t>(idx) / 64] &=
      ~(1ULL << (static_cast<std::size_t>(idx) % 64));
  // Re-place in list order: equal timestamps keep their FIFO order because
  // appends preserve it and every push that could tie arrives later (with
  // a larger sequence number) by construction.
  while (n) {
    Node* next = n->next;
    if (n->seq == 0)
      free_node(n);
    else
      place(n);
    n = next;
  }
}

void EventQueue::drain_overflow() {
  while (!overflow_.empty() &&
         (overflow_.front()->at >> (kLevels * kBits)) ==
             (cur_ >> (kLevels * kBits))) {
    std::pop_heap(overflow_.begin(), overflow_.end(), FiresAfter{});
    Node* n = overflow_.back();
    overflow_.pop_back();
    if (n->seq == 0)
      free_node(n);
    else
      place(n);  // heap pops come out in (time, seq) order, keeping FIFO
  }
}

void EventQueue::settle() {
  // Highest level first: draining the overflow block may feed L2/L1/L0,
  // and the per-level cascades below only touch the bucket the clock now
  // sits in.
  if ((cur_ >> (kLevels * kBits)) != top_block_) {
    top_block_ = cur_ >> (kLevels * kBits);
    drain_overflow();
  }
  if ((cur_ >> (2 * kBits)) != l2_block_) {
    l2_block_ = cur_ >> (2 * kBits);
    cascade(2, level_index(cur_, 2));
  }
  if ((cur_ >> kBits) != l1_block_) {
    l1_block_ = cur_ >> kBits;
    cascade(1, level_index(cur_, 1));
  }
}

int EventQueue::scan_bits(int level, int from) const noexcept {
  if (from >= kBucketsPerLevel) return -1;
  const auto& words = bits_[static_cast<std::size_t>(level)];
  int word = from / 64;
  std::uint64_t cur = words[static_cast<std::size_t>(word)] &
                      (~0ULL << (from % 64));
  while (true) {
    if (cur) return word * 64 + __builtin_ctzll(cur);
    if (++word >= kWords) return -1;
    cur = words[static_cast<std::size_t>(word)];
  }
}

EventQueue::Node* EventQueue::find_min(bool take) {
  if (live_ == 0) return nullptr;
  for (;;) {
    settle();

    // Non-monotone pushes (times below the wheel clock) always win.
    while (!past_.empty()) {
      Node* n = past_.front();
      if (n->seq != 0) {
        if (!take) return n;
        std::pop_heap(past_.begin(), past_.end(), FiresAfter{});
        past_.pop_back();
        return n;
      }
      std::pop_heap(past_.begin(), past_.end(), FiresAfter{});
      past_.pop_back();
      free_node(n);
    }

    // Leaf level: first occupied bucket at or after the clock position.
    int idx = scan_bits(0, level_index(cur_, 0));
    while (idx >= 0) {
      Bucket& b = bucket(0, idx);
      while (b.head && b.head->seq == 0) {  // prune cancelled heads
        Node* dead = b.head;
        b.head = dead->next;
        if (!b.head) b.tail = nullptr;
        free_node(dead);
      }
      if (b.head) {
        Node* n = b.head;
        if (take) {
          b.head = n->next;
          if (!b.head) b.tail = nullptr;
          if (!b.head)
            bits_[0][static_cast<std::size_t>(idx) / 64] &=
                ~(1ULL << (static_cast<std::size_t>(idx) % 64));
        }
        return n;
      }
      bits_[0][static_cast<std::size_t>(idx) / 64] &=
          ~(1ULL << (static_cast<std::size_t>(idx) % 64));
      idx = scan_bits(0, idx + 1);
    }

    // Leaf window exhausted: advance the clock to the start of the next
    // occupied window (no live event can precede it) and cascade there.
    bool advanced = false;
    for (int level = 1; level < kLevels && !advanced; ++level) {
      const int j = scan_bits(level, level_index(cur_, level));
      if (j >= 0) {
        const SimTime window = SimTime{1} << ((level + 1) * kBits);
        cur_ = (cur_ & ~(window - 1)) |
               (static_cast<SimTime>(j) << (level * kBits));
        advanced = true;  // settle() cascades the bucket we just reached
      }
    }
    if (advanced) continue;

    while (!overflow_.empty() && overflow_.front()->seq == 0) {
      std::pop_heap(overflow_.begin(), overflow_.end(), FiresAfter{});
      free_node(overflow_.back());
      overflow_.pop_back();
    }
    if (!overflow_.empty()) {
      cur_ = overflow_.front()->at;  // settle() drains this block
      continue;
    }
    return nullptr;  // unreachable while live_ > 0
  }
}

}  // namespace prord::sim
