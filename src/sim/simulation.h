#ifndef CACKLE_SIM_SIMULATION_H_
#define CACKLE_SIM_SIMULATION_H_

#include <cstdint>
#include <memory>

#include "common/inline_function.h"

namespace cackle {

/// Simulated time in milliseconds since the start of the workload. All cloud
/// substrate and engine components operate in simulated time; nothing in the
/// library reads the wall clock.
using SimTimeMs = int64_t;

constexpr SimTimeMs kMillisPerSecond = 1000;
constexpr SimTimeMs kMillisPerMinute = 60 * kMillisPerSecond;
constexpr SimTimeMs kMillisPerHour = 60 * kMillisPerMinute;

constexpr double MsToSeconds(SimTimeMs ms) {
  return static_cast<double>(ms) / 1000.0;
}
constexpr SimTimeMs SecondsToMs(double seconds) {
  return static_cast<SimTimeMs>(seconds * 1000.0 + 0.5);
}

/// Which event-queue implementation backs a Simulation.
///
/// Both schedulers execute events in exactly the same (time, insertion-
/// sequence) order — a workload run under one must be bit-identical under
/// the other (enforced by sim_scheduler_property_test and
/// sim_differential_test). kBinaryHeap is the original pointer-based
/// std::priority_queue kernel, kept as the differential-testing reference
/// and the performance baseline; kRadixHeap is the O(1)-amortized monotone
/// radix heap with arena-allocated event nodes.
enum class SimScheduler {
  kBinaryHeap,
  kRadixHeap,
};

/// Tuning for the simulation kernel. Defaults are right for every workload
/// in this repo; the knobs exist for tests and benchmarks.
struct SimOptions {
  SimScheduler scheduler = SimScheduler::kRadixHeap;

  /// Lazy tombstone compaction: a cancelled event frees its node
  /// immediately but leaves a stale (slot, generation) entry in the queue
  /// structure. A sweep removes all stale entries once their count exceeds
  /// both this floor and 2x the live event count, so mass-cancel workloads
  /// cannot grow the queue unboundedly.
  int64_t min_compaction_tombstones = 1024;
};

/// \brief Discrete-event simulation kernel.
///
/// Events are closures executed in (time, insertion-sequence) order, so
/// simultaneous events run deterministically in the order they were
/// scheduled. Components (VM fleet, elastic pool, coordinator, shuffle
/// layer) share one Simulation and interact only through scheduled events.
///
/// Event handles returned by ScheduleAt/ScheduleAfter are generation
/// checked: Cancel() on a handle whose event already fired (or whose
/// storage slot has since been recycled) safely returns false.
class Simulation {
 public:
  /// Event closures are small-buffer-optimized and move-only; anything
  /// callable as void() converts implicitly, without a heap allocation for
  /// captures up to 48 bytes.
  using Callback = InlineFunction<48>;

  /// Lifetime counters for observability and bounded-memory tests. All
  /// values are cumulative except peak_queue_entries.
  struct Stats {
    int64_t scheduled = 0;
    int64_t cancelled = 0;
    /// Tombstone sweeps triggered by the lazy-compaction threshold.
    int64_t compactions = 0;
    /// Stale (cancelled) queue entries physically removed by sweeps.
    int64_t tombstones_purged = 0;
    /// High-water mark of resident queue entries (live + tombstones).
    int64_t peak_queue_entries = 0;
  };

  Simulation();
  explicit Simulation(const SimOptions& options);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTimeMs NowMs() const { return now_; }

  /// Schedules `cb` at absolute simulated time `when` (>= NowMs()).
  /// Returns an event handle usable with Cancel().
  uint64_t ScheduleAt(SimTimeMs when, Callback cb);

  /// Schedules `cb` `delay` milliseconds from now.
  uint64_t ScheduleAfter(SimTimeMs delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns false if the event already ran or was
  /// already cancelled.
  bool Cancel(uint64_t event_id);

  /// Runs events until the queue is empty or simulated time would pass
  /// `until` (inclusive). Returns the number of events executed.
  int64_t RunUntil(SimTimeMs until);

  /// Runs until no events remain.
  int64_t RunToCompletion();

  bool empty() const { return live_events_ == 0; }
  int64_t executed_events() const { return executed_; }

  SimScheduler scheduler() const { return options_.scheduler; }
  const Stats& stats() const { return stats_; }

  /// Entries currently resident in the queue structures, including
  /// cancelled tombstones awaiting lazy compaction. Test hook for the
  /// bounded-memory guarantee.
  int64_t queue_entries() const;

 private:
  class QueueImpl;        // scheduler interface
  class BinaryHeapQueue;  // reference implementation
  class RadixHeap;        // monotone radix-heap implementation

  const SimOptions options_;
  SimTimeMs now_ = 0;
  uint64_t next_seq_ = 0;
  int64_t live_events_ = 0;
  int64_t executed_ = 0;
  Stats stats_;
  std::unique_ptr<QueueImpl> queue_;
};

}  // namespace cackle

#endif  // CACKLE_SIM_SIMULATION_H_
