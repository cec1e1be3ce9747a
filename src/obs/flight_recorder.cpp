#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "util/json.h"

namespace prord::obs {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FlightRing::FlightRing(std::string name, std::size_t capacity)
    : name_(std::move(name)),
      slots_(round_up_pow2(capacity)),
      mask_(slots_.size() - 1) {}

void FlightRing::record(const FlightEvent& event) noexcept {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  // Claim the slot before overwriting it: a reader that copied any byte
  // of this write sees the claim after its acquire fence and drops the
  // slot's old event.
  claimed_.store(head + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slots_[head & mask_] = event;
  // Publish after the slot write: a reader that sees head > i knows slot
  // i's bytes are complete (unless it has since wrapped, which the
  // reader's re-check catches).
  head_.store(head + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRing::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t begin = head > cap ? head - cap : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t i = begin; i < head; ++i)
    out.push_back(slots_[i & mask_]);
  // Writer may have lapped us mid-copy: discard the prefix that could
  // have been overwritten. Event i + cap reuses slot i, so slot i is
  // unsafe once that write was claimed (claimed > i + cap), even if it
  // is still in progress.
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t claimed = claimed_.load(std::memory_order_relaxed);
  if (claimed > begin + cap) {
    const std::uint64_t unsafe = std::min<std::uint64_t>(
        claimed - cap - begin, static_cast<std::uint64_t>(out.size()));
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(unsafe));
  }
  return out;
}

std::uint64_t FlightRing::overwritten() const noexcept {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  return head > cap ? head - cap : 0;
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::enable(std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_capacity_ = ring_capacity ? ring_capacity : kDefaultRingCapacity;
  if (!enabled_.load(std::memory_order_relaxed)) {
    epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
  }
}

void FlightRecorder::disable() {
  enabled_.store(false, std::memory_order_release);
}

std::int64_t FlightRecorder::now_us() const noexcept {
  if (!enabled()) return 0;
  return (steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed)) /
         1000;
}

namespace {
/// Per-thread ring cache, invalidated when the recorder generation bumps
/// (reset() in tests).
struct ThreadRingSlot {
  std::uint64_t generation = 0;
  FlightRing* ring = nullptr;
};
thread_local ThreadRingSlot t_ring;
}  // namespace

FlightRing& FlightRecorder::thread_ring() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (t_ring.ring != nullptr && t_ring.generation == gen)
    return *t_ring.ring;
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<FlightRing>(
      "thread-" + std::to_string(rings_.size()), ring_capacity_));
  t_ring.ring = rings_.back().get();
  t_ring.generation = gen;
  return *t_ring.ring;
}

void FlightRecorder::name_thread_ring(std::string name) {
  FlightRing& ring = thread_ring();
  std::lock_guard<std::mutex> lock(mu_);
  ring.set_name(std::move(name));
}

void FlightRecorder::record(FlightEventType type, std::uint32_t a,
                            std::uint32_t b, std::uint64_t c) noexcept {
  if (!enabled()) return;
  FlightEvent event;
  event.t_us = now_us();
  event.type = type;
  event.a = a;
  event.b = b;
  event.c = c;
  thread_ring().record(event);
}

std::string FlightRecorder::dump_json(std::string_view reason) const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("reason", std::string(reason));
  doc.set("dumped_at_us", now_us());
  util::JsonValue rings = util::JsonValue::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      util::JsonValue r = util::JsonValue::object();
      r.set("name", ring->name());
      r.set("capacity", static_cast<std::uint64_t>(ring->capacity()));
      r.set("recorded", ring->recorded());
      r.set("overwritten", ring->overwritten());
      util::JsonValue events = util::JsonValue::array();
      for (const FlightEvent& e : ring->snapshot()) {
        util::JsonValue ev = util::JsonValue::object();
        ev.set("t_us", e.t_us);
        ev.set("type", flight_event_name(e.type));
        ev.set("a", static_cast<std::uint64_t>(e.a));
        ev.set("b", static_cast<std::uint64_t>(e.b));
        ev.set("c", e.c);
        events.push_back(std::move(ev));
      }
      r.set("events", std::move(events));
      rings.push_back(std::move(r));
    }
  }
  doc.set("rings", std::move(rings));
  return doc.dump();
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  std::string_view reason) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "flight recorder: cannot open %s\n", path.c_str());
    return false;
  }
  out << dump_json(reason) << '\n';
  return out.good();
}

void FlightRecorder::reset() {
  disable();
  std::lock_guard<std::mutex> lock(mu_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  rings_.clear();
  dump_requested_.store(0, std::memory_order_relaxed);
}

}  // namespace prord::obs
