// Discrete-event simulator driver.
//
// The simulator owns the clock and the pending-event set. Model components
// schedule callbacks; `run()` dispatches them in time order until the set
// drains or a stop condition fires. Single-threaded by design: web-cluster
// simulations at this scale are dominated by model logic, and determinism
// (same seed -> same result tables) is a hard requirement for the
// reproduction benches.
#pragma once

#include <cstdint>
#include <limits>

#include "simcore/event_queue.h"
#include "simcore/sim_time.h"

namespace prord::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` after the current time (delay >= 0).
  EventHandle schedule(SimTime delay, EventFn fn);

  /// Schedules `fn` at absolute time `at` (must not be in the past).
  EventHandle schedule_at(SimTime at, EventFn fn);

  /// Cancels a scheduled event; returns true if it was still pending.
  bool cancel(EventHandle h) { return queue_.cancel(h); }

  /// Runs until the event set drains or `until` is passed.
  /// Returns the number of events dispatched.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Dispatches exactly one event if any is pending; returns false if idle.
  bool step();

  bool idle() const noexcept { return queue_.empty(); }
  std::size_t pending_events() const noexcept { return queue_.size(); }
  std::uint64_t dispatched_events() const noexcept { return dispatched_; }

 private:
  EventQueue queue_;
  SimTime now_ = kTimeZero;
  std::uint64_t dispatched_ = 0;
};

/// Repeating timer: reschedules itself every `period` until stop().
/// Used by the replication planner (Algorithm 3 runs "every t seconds").
class PeriodicTask {
 public:
  /// `fn` is invoked at now+period, now+2*period, ... until stop().
  PeriodicTask(Simulator& sim, SimTime period, EventFn fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const noexcept { return running_; }
  SimTime period() const noexcept { return period_; }

 private:
  void arm();

  Simulator& sim_;
  SimTime period_;
  EventFn fn_;
  EventHandle next_{};
  bool running_ = true;
};

}  // namespace prord::sim
