// Differential fuzz of the Simulation event schedulers against a naive
// reference model.
//
// The model is a sorted vector of (when, seq) records — the simplest
// possible priority queue, obviously correct by inspection. Thousands of
// seeded random operation sequences (schedule at random/duplicate/current
// timestamps, far-future times, cancel of live/fired/bogus
// handles, run-until random boundaries) are applied to both scheduler
// backends and the model in lockstep; every divergence in execution order,
// Cancel() return value, clock value, or executed/empty accounting is a
// bug in a scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"

#include "sim/simulation.h"

namespace cackle {
namespace {

/// Naive reference: every pending event as a (when, seq) record in a flat
/// vector, re-scanned on every operation. O(n) everywhere, trivially
/// correct.
class ReferenceModel {
 public:
  uint64_t Schedule(SimTimeMs when) {
    const uint64_t id = next_id_++;
    pending_.push_back(Pending{when, id});
    return id;
  }

  bool Cancel(uint64_t id) {
    for (size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].id == id) {
        pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  /// Pops every event with when <= until in (when, insertion-id) order and
  /// returns their ids; advances the clock like Simulation::RunUntil
  /// (including the idle advance to `until`).
  std::vector<uint64_t> RunUntil(SimTimeMs until) {
    std::vector<uint64_t> fired = PopReady(until);
    if (until > now_ && pending_.empty()) now_ = until;
    return fired;
  }

  /// Like Simulation::RunToCompletion: drains everything, no idle advance.
  std::vector<uint64_t> RunToCompletion() { return PopReady(kFarFuture); }

  SimTimeMs NowMs() const { return now_; }
  bool empty() const { return pending_.empty(); }
  int64_t executed() const { return executed_; }
  SimTimeMs MaxPendingTime() const {
    SimTimeMs max_when = 0;
    for (const Pending& p : pending_) max_when = std::max(max_when, p.when);
    return max_when;
  }

  static constexpr SimTimeMs kFarFuture = SimTimeMs{1} << 60;

 private:
  struct Pending {
    SimTimeMs when;
    uint64_t id;
  };

  std::vector<uint64_t> PopReady(SimTimeMs until) {
    std::vector<uint64_t> fired;
    for (;;) {
      size_t best = pending_.size();
      for (size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].when > until) continue;
        if (best == pending_.size() ||
            pending_[i].when < pending_[best].when ||
            (pending_[i].when == pending_[best].when &&
             pending_[i].id < pending_[best].id)) {
          best = i;
        }
      }
      if (best == pending_.size()) break;
      now_ = pending_[best].when;
      fired.push_back(pending_[best].id);
      ++executed_;
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(best));
    }
    return fired;
  }
  std::vector<Pending> pending_;
  uint64_t next_id_ = 0;
  SimTimeMs now_ = 0;
  int64_t executed_ = 0;
};

/// One fuzzed episode: random interleaving of schedules, cancels, and
/// run-until steps applied to `sim` and the model in lockstep.
void RunEpisode(uint64_t seed, SimScheduler scheduler) {
  Rng rng(seed);
  SimOptions opts;
  opts.scheduler = scheduler;
  // A small threshold so fuzzing exercises compactions.
  opts.min_compaction_tombstones = 16;
  Simulation sim(opts);
  ReferenceModel model;

  // sim handle -> model id for every scheduled event, kept forever so
  // cancel-after-fire and double-cancel are exercised.
  std::vector<std::pair<uint64_t, uint64_t>> handles;
  std::vector<uint64_t> fired_model_ids;

  const int ops = 200 + static_cast<int>(rng.NextBounded(400));
  for (int op = 0; op < ops; ++op) {
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 55) {
      // Schedule: biased toward the near future with bursts of duplicate
      // timestamps, schedule-at-now, and rare far-future times.
      SimTimeMs when;
      const uint64_t kind = rng.NextBounded(10);
      if (kind == 0) {
        when = sim.NowMs();  // schedule-at-now
      } else if (kind == 1) {
        when = sim.NowMs() + 1'000'000'000 +
               static_cast<SimTimeMs>(rng.NextBounded(1'000'000'000));
      } else {
        when = sim.NowMs() + static_cast<SimTimeMs>(rng.NextBounded(500));
      }
      const int burst = kind == 2 ? 1 + static_cast<int>(rng.NextBounded(5))
                                  : 1;
      for (int b = 0; b < burst; ++b) {
        const uint64_t model_id = model.Schedule(when);
        const uint64_t sim_id = sim.ScheduleAt(
            when, [&fired_model_ids, model_id] {
              fired_model_ids.push_back(model_id);
            });
        handles.emplace_back(sim_id, model_id);
      }
    } else if (dice < 80 && !handles.empty()) {
      // Cancel a random handle — may be live, fired, or already cancelled;
      // the return values must agree exactly.
      const auto& [sim_id, model_id] =
          handles[rng.NextBounded(handles.size())];
      ASSERT_EQ(sim.Cancel(sim_id), model.Cancel(model_id))
          << "Cancel divergence, seed " << seed;
    } else if (dice < 82) {
      // Bogus handle: never issued (or from the far future of the id
      // space). Both must reject it.
      ASSERT_FALSE(sim.Cancel(~uint64_t{0} - rng.NextBounded(1000)));
    } else {
      // Run until a random boundary (occasionally far ahead, draining
      // the far-future events).
      const SimTimeMs until =
          rng.NextBounded(20) == 0
              ? model.MaxPendingTime() + 1
              : sim.NowMs() + static_cast<SimTimeMs>(rng.NextBounded(400));
      fired_model_ids.clear();
      const std::vector<uint64_t> expected = model.RunUntil(until);
      const int64_t ran = sim.RunUntil(until);
      ASSERT_EQ(static_cast<size_t>(ran), expected.size())
          << "run count divergence, seed " << seed;
      ASSERT_EQ(fired_model_ids, expected)
          << "execution order divergence, seed " << seed;
      ASSERT_EQ(sim.NowMs(), model.NowMs())
          << "clock divergence, seed " << seed;
    }
    ASSERT_EQ(sim.empty(), model.empty()) << "empty() divergence, seed "
                                          << seed;
    ASSERT_EQ(sim.executed_events(), model.executed())
        << "executed_events() divergence, seed " << seed;
  }

  // Drain: everything left must fire, in model order.
  fired_model_ids.clear();
  const std::vector<uint64_t> expected = model.RunToCompletion();
  sim.RunToCompletion();
  ASSERT_EQ(fired_model_ids, expected) << "drain divergence, seed " << seed;
  ASSERT_TRUE(sim.empty());
  ASSERT_EQ(sim.executed_events(), model.executed());
}

// ---------------------------------------------------------------------------
// Deterministic regressions: each scenario runs under kRadixHeap and under
// the kBinaryHeap oracle, and the two firing sequences must be equal.
// ---------------------------------------------------------------------------

struct FiredEvent {
  SimTimeMs when;
  int64_t id;
  bool operator==(const FiredEvent&) const = default;
};

/// Runs `scenario` on a fresh Simulation per backend and returns the
/// (time, id) sequence each one recorded.
template <typename Scenario>
std::pair<std::vector<FiredEvent>, std::vector<FiredEvent>> RunBoth(
    Scenario scenario) {
  std::vector<FiredEvent> fired[2];
  const SimScheduler schedulers[2] = {SimScheduler::kBinaryHeap,
                                      SimScheduler::kRadixHeap};
  for (int i = 0; i < 2; ++i) {
    SimOptions opts;
    opts.scheduler = schedulers[i];
    Simulation sim(opts);
    scenario(sim, fired[i]);
  }
  return {fired[0], fired[1]};
}

TEST(SchedulerRegressionTest, ScheduleBeforePeekedEventFiresFirst) {
  // RunUntil stops on a peeked event beyond its limit; the scheduler must
  // not commit to that event's time, because a later ScheduleAt may land
  // between the clock and it. The cancelled event at 900 shares a radix
  // bucket with the live one at 1000, so its stale time must not be
  // committed either.
  const auto [heap, radix] = RunBoth([](Simulation& sim,
                                        std::vector<FiredEvent>& fired) {
    const auto record = [&sim, &fired](int64_t id) {
      return [&sim, &fired, id] { fired.push_back({sim.NowMs(), id}); };
    };
    sim.ScheduleAt(10, record(1));
    sim.ScheduleAt(1000, record(2));
    const uint64_t victim = sim.ScheduleAt(900, record(3));
    ASSERT_EQ(sim.RunUntil(100), 1);
    ASSERT_TRUE(sim.Cancel(victim));
    ASSERT_EQ(sim.RunUntil(950), 0);
    ASSERT_EQ(sim.NowMs(), 10);
    sim.ScheduleAt(500, record(4));
    sim.ScheduleAt(920, record(5));
    sim.ScheduleAt(10, record(6));
    sim.RunToCompletion();
  });
  const std::vector<FiredEvent> expected = {
      {10, 1}, {10, 6}, {500, 4}, {920, 5}, {1000, 2}};
  EXPECT_EQ(heap, expected);
  EXPECT_EQ(radix, expected);
}

/// Engine-shaped event: re-schedules itself `hops` more times, a few
/// milliseconds ahead each time, like a task's chain of state changes.
struct TaskChain {
  Simulation* sim;
  std::vector<FiredEvent>* fired;
  Rng* rng;
  int64_t* next_id;
  int64_t id;
  int hops;
  void operator()() const {
    fired->push_back({sim->NowMs(), id});
    if (hops == 0) return;
    sim->ScheduleAfter(static_cast<SimTimeMs>(1 + rng->NextBounded(64)),
                       TaskChain{sim, fired, rng, next_id, (*next_id)++,
                                 hops - 1});
  }
};

TEST(SchedulerRegressionTest, EngineShapeKeepsFifoAmongEqualTimes) {
  // The event population of an engine run: 16384 arrivals spread over 12 h
  // all scheduled at t=0 (on whole seconds, so many share a time), beside
  // ~2000 near-term events with millisecond delays. Each arrival fans out
  // into three tasks at one shared time. Equal-time events must fire in
  // schedule order under both backends.
  const auto [heap, radix] = RunBoth([](Simulation& sim,
                                        std::vector<FiredEvent>& fired) {
    Rng rng(0x5EEDFACEULL);
    int64_t next_id = 0;
    for (int i = 0; i < 16384; ++i) {
      const SimTimeMs when =
          kMillisPerSecond *
          static_cast<SimTimeMs>(rng.NextBounded(12 * 3600));
      const int64_t id = next_id++;
      sim.ScheduleAt(when, [&sim, &fired, &rng, &next_id, id] {
        fired.push_back({sim.NowMs(), id});
        const SimTimeMs delay =
            static_cast<SimTimeMs>(1 + rng.NextBounded(64));
        for (int t = 0; t < 3; ++t) {
          sim.ScheduleAfter(delay, TaskChain{&sim, &fired, &rng, &next_id,
                                             next_id++, 4});
        }
      });
    }
    for (int i = 0; i < 2000; ++i) {
      sim.ScheduleAt(static_cast<SimTimeMs>(1 + rng.NextBounded(64)),
                     TaskChain{&sim, &fired, &rng, &next_id, next_id++, 4});
    }
    sim.RunToCompletion();
  });
  ASSERT_EQ(heap.size(), size_t{16384 + 16384 * 3 * 5 + 2000 * 5});
  EXPECT_TRUE(radix == heap) << "radix heap diverged from the binary heap";
  int64_t ties = 0;
  for (size_t i = 1; i < radix.size(); ++i) {
    ASSERT_LE(radix[i - 1].when, radix[i].when) << i;
    if (radix[i - 1].when == radix[i].when) {
      ASSERT_LT(radix[i - 1].id, radix[i].id) << "FIFO broken at " << i;
      ++ties;
    }
  }
  EXPECT_GT(ties, 10'000) << "scenario no longer exercises equal times";
}

class SchedulerFuzzTest : public ::testing::TestWithParam<SimScheduler> {};

TEST_P(SchedulerFuzzTest, ThousandsOfEpisodesMatchReferenceModel) {
  // ~1500 episodes x ~400 ops: several hundred thousand operations per
  // scheduler, with far-future times spreading entries over many radix
  // buckets and a tiny compaction floor so sweeps trigger constantly.
  for (uint64_t seed = 1; seed <= 1500; ++seed) {
    RunEpisode(seed * 2654435761u, GetParam());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, SchedulerFuzzTest,
    ::testing::Values(SimScheduler::kBinaryHeap,
                      SimScheduler::kRadixHeap),
    [](const auto& info) {
      return info.param == SimScheduler::kBinaryHeap ? "BinaryHeap"
                                                     : "RadixHeap";
    });

}  // namespace
}  // namespace cackle
