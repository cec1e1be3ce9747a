// Equivalence fuzz: the timing-wheel queue must be operation-for-operation
// indistinguishable from an ordered model keyed on (time, push order) —
// same pop order, same pop times, same cancel outcomes, same sizes — under
// randomized streams of pushes (leaf-window, mid-wheel, overflow-range, and
// below-clock "past" times), cancels, and pops. This is the contract that
// keeps every figure table byte-identical: the simulator orders
// simultaneous events by scheduling order, and the queue must honour it
// exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"

namespace prord::sim {
namespace {

/// Reference model: pending events in a map ordered by (time, push
/// order). A cancel erases the key, so a handle whose event already fired
/// or was already cancelled finds nothing and reports false.
class OrderedModel {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;

  Key push(SimTime at, int id) {
    const Key key{at, next_order_++};
    pending_.emplace(key, id);
    return key;
  }
  bool cancel(const Key& key) { return pending_.erase(key) > 0; }
  SimTime next_time() const { return pending_.begin()->first.first; }
  std::pair<SimTime, int> pop() {
    const auto it = pending_.begin();
    const std::pair<SimTime, int> fired{it->first.first, it->second};
    pending_.erase(it);
    return fired;
  }
  std::size_t size() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }

 private:
  std::map<Key, int> pending_;
  std::uint64_t next_order_ = 0;
};

void run_fuzz(std::uint64_t seed, int ops) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  EventQueue wheel;
  OrderedModel model;

  std::mt19937_64 rng(seed);
  std::vector<EventHandle> wheel_handles;
  std::vector<OrderedModel::Key> model_handles;
  std::vector<std::pair<SimTime, int>> wheel_fired, model_fired;
  SimTime horizon = 0;  // max time popped so far
  int next_id = 0;

  const auto push_both = [&](SimTime at) {
    const int id = next_id++;
    wheel_handles.push_back(wheel.push(
        at, [&wheel_fired, at, id] { wheel_fired.emplace_back(at, id); }));
    model_handles.push_back(model.push(at, id));
  };

  const auto pop_both = [&] {
    SimTime wheel_at = -1;
    EventFn wheel_fn = wheel.pop(wheel_at);
    model_fired.push_back(model.pop());
    ASSERT_EQ(wheel_at, model_fired.back().first);
    wheel_fn();
    ASSERT_FALSE(wheel_fired.empty());
    ASSERT_EQ(wheel_fired.back(), model_fired.back());
    if (wheel_at > horizon) horizon = wheel_at;
  };

  for (int op = 0; op < ops; ++op) {
    const auto roll = rng() % 100;
    if (roll < 50 || wheel.empty()) {
      // Push — spread times across every wheel region.
      SimTime at = 0;
      switch (rng() % 8) {
        case 0:  // same-leaf collisions (push order decides)
          at = horizon + static_cast<SimTime>(rng() % 4);
          break;
        case 1:  // leaf window
          at = horizon + static_cast<SimTime>(rng() % 2000);
          break;
        case 2:
        case 3:  // L1/L2 windows (~2 ms .. ~4.3 s)
          at = horizon + static_cast<SimTime>(rng() % (1u << 22));
          break;
        case 4:  // beyond the wheel span: overflow heap
          at = horizon + static_cast<SimTime>(rng() % (1ull << 34));
          break;
        default:  // at or below the clock: the "past" mini-heap
          at = static_cast<SimTime>(
              rng() % (static_cast<std::uint64_t>(horizon) + 1));
          break;
      }
      push_both(at);
    } else if (roll < 70 && !wheel_handles.empty()) {
      // Cancel a random handle (live, already fired, or already cancelled
      // — outcomes must agree in every case).
      const std::size_t i = rng() % wheel_handles.size();
      const bool wheel_ok = wheel.cancel(wheel_handles[i]);
      const bool model_ok = model.cancel(model_handles[i]);
      ASSERT_EQ(wheel_ok, model_ok) << "cancel of handle " << i;
    } else {
      ASSERT_FALSE(model.empty());
      ASSERT_EQ(wheel.next_time(), model.next_time());
      ASSERT_NO_FATAL_FAILURE(pop_both());
    }
    ASSERT_EQ(wheel.size(), model.size());
    ASSERT_EQ(wheel.empty(), model.empty());
  }

  // Drain everything that's left; full fire logs must match exactly.
  while (!model.empty()) {
    ASSERT_FALSE(wheel.empty());
    ASSERT_EQ(wheel.next_time(), model.next_time());
    ASSERT_NO_FATAL_FAILURE(pop_both());
  }
  ASSERT_TRUE(wheel.empty());
  ASSERT_EQ(wheel_fired, model_fired);
}

// The reference these tests compare against is OrderedModel above; the
// "HeapReference" in their names is the binary heap it replaced.
TEST(EventQueueEquivalence, RandomizedStreamsMatchHeapReference) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    run_fuzz(seed, 20'000);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueEquivalence, CancelHeavyStreamsMatchHeapReference) {
  // A second pass with fewer ops and a different seed band; cancels are
  // already covered above, but small streams tickle the wheel's cascade
  // boundaries differently (the clock crosses blocks in bigger jumps
  // relative to the live population).
  for (const std::uint64_t seed : {1000ull, 2026ull, 9999ull}) {
    run_fuzz(seed, 4'000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace prord::sim
