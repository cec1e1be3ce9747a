// Always-on flight recorder: per-thread ring buffers of recent events.
//
// Each thread owns one fixed-size ring (no allocation, no locks on the
// record path — a slot write plus one release store), so recording is
// bounded-overhead by construction and safe from any thread. Dumping
// snapshots every ring from whatever thread asks: the reader copies the
// slots and re-checks the writer's head so any slot overwritten mid-copy
// is discarded rather than emitted torn.
//
// The process-wide instance() is disabled by default (every tap is a
// single relaxed load + branch); the live cluster enables it, and the
// distributor dumps it to disk on SLO violation, upstream-fault
// detection, or SIGUSR2 (request_dump() is async-signal-safe; the event
// loop polls consume_dump_request()). Dump format: docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace prord::obs {

enum class FlightEventType : std::uint8_t {
  kRouteDecision = 0,  ///< a=server, b=file, c=request index
  kCacheEvict = 1,     ///< a=backend, b=victim file, c=bytes freed
  kHealthDown = 2,     ///< a=server
  kHealthUp = 3,       ///< a=server
  kReplicaPush = 4,    ///< a=server, b=file, c=bytes
  kPrefetchPush = 5,   ///< a=server, b=file, c=bytes
  kUpstreamFail = 6,   ///< a=worker, b=in-flight requests failed
  kSloViolation = 7,   ///< a=short burn x1000, b=long burn x1000
  kDump = 8,           ///< recorded when a dump is taken
  kPrefetchIssue = 9,  ///< a=server, b=file, c=request index (live prefetch)
};

inline constexpr unsigned kNumFlightEventTypes = 10;

constexpr const char* flight_event_name(FlightEventType t) noexcept {
  switch (t) {
    case FlightEventType::kRouteDecision: return "route";
    case FlightEventType::kCacheEvict: return "cache_evict";
    case FlightEventType::kHealthDown: return "health_down";
    case FlightEventType::kHealthUp: return "health_up";
    case FlightEventType::kReplicaPush: return "replica_push";
    case FlightEventType::kPrefetchPush: return "prefetch_push";
    case FlightEventType::kUpstreamFail: return "upstream_fail";
    case FlightEventType::kSloViolation: return "slo_violation";
    case FlightEventType::kDump: return "dump";
    case FlightEventType::kPrefetchIssue: return "prefetch_issue";
  }
  return "?";
}

/// One recorded event. Plain trivially-copyable value; the payload fields
/// a/b/c are typed per event kind (see the enum comments).
struct FlightEvent {
  std::int64_t t_us = 0;  ///< wall microseconds since enable()
  FlightEventType type = FlightEventType::kRouteDecision;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
};

/// Single-writer, multi-reader ring. The owning thread records; any
/// thread may snapshot.
class FlightRing {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  FlightRing(std::string name, std::size_t capacity);

  /// Owner thread only. Never blocks, never allocates.
  void record(const FlightEvent& event) noexcept;

  /// Events still resident, oldest first. Slots overwritten while the
  /// copy was in progress are discarded (never returned torn).
  std::vector<FlightEvent> snapshot() const;

  const std::string& name() const noexcept { return name_; }
  /// Rename (dump labelling). Caller provides cross-thread exclusion —
  /// FlightRecorder renames under its creation/dump mutex.
  void set_name(std::string name) { name_ = std::move(name); }
  std::size_t capacity() const noexcept { return slots_.size(); }
  /// Total events ever recorded (>= capacity() means wraparound).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Events lost to wraparound.
  std::uint64_t overwritten() const noexcept;

 private:
  std::string name_;
  std::vector<FlightEvent> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};  ///< next write position
  /// head_ + 1 while a write is in flight, else head_: the events whose
  /// slots a writer has started to reuse.
  std::atomic<std::uint64_t> claimed_{0};
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  /// Process-wide instance used by every tap site.
  static FlightRecorder& instance();

  /// Arms the recorder: sets the time epoch and the capacity used for
  /// rings created from here on. Idempotent while enabled.
  void enable(std::size_t ring_capacity = kDefaultRingCapacity);
  void disable();
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Wall microseconds since enable() (0 when disabled).
  std::int64_t now_us() const noexcept;

  /// This thread's ring, created on first use (named "thread-<n>" until
  /// name_thread_ring() overrides it). Only meaningful while enabled.
  FlightRing& thread_ring();

  /// Names the calling thread's ring ("distributor", "backend0", ...).
  void name_thread_ring(std::string name);

  /// Records into the calling thread's ring; no-op while disabled.
  void record(FlightEventType type, std::uint32_t a = 0, std::uint32_t b = 0,
              std::uint64_t c = 0) noexcept;

  /// Async-signal-safe dump request (for SIGUSR2 handlers): a later
  /// consume_dump_request() from the polling thread returns true once.
  void request_dump() noexcept {
    dump_requested_.store(1, std::memory_order_release);
  }
  bool consume_dump_request() noexcept {
    return dump_requested_.exchange(0, std::memory_order_acq_rel) != 0;
  }

  /// Snapshot of every ring as one JSON document (see
  /// docs/OBSERVABILITY.md "Flight recorder dump format").
  std::string dump_json(std::string_view reason) const;

  /// dump_json() to `path`; false (with a stderr note) on I/O failure.
  bool dump_to_file(const std::string& path, std::string_view reason) const;

  /// Drops every ring and disables (test isolation). Invalidates rings
  /// handed out earlier — callers must not hold FlightRing pointers
  /// across reset().
  void reset();

 private:
  FlightRecorder() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<int> dump_requested_{0};
  std::atomic<std::uint64_t> generation_{1};
  std::atomic<std::int64_t> epoch_ns_{0};
  std::size_t ring_capacity_ = kDefaultRingCapacity;

  mutable std::mutex mu_;  ///< guards ring creation/naming/dump, not record
  std::vector<std::unique_ptr<FlightRing>> rings_;
};

/// Tap helper: FlightRecorder::instance().record(...) behind one call.
inline void flight_record(FlightEventType type, std::uint32_t a = 0,
                          std::uint32_t b = 0, std::uint64_t c = 0) noexcept {
  FlightRecorder& fr = FlightRecorder::instance();
  if (fr.enabled()) fr.record(type, a, b, c);
}

}  // namespace prord::obs
