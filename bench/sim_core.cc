// Simulation-kernel microbench: event throughput of the two schedulers,
// end-to-end engine queries/s, and parallel sweep speedup.
//
// Emits google-benchmark-compatible JSON (benchmarks carry
// events_per_second / items_per_second) so scripts/bench_compare.py can
// diff runs, plus a summary block with the Radix-vs-Heap speedups, the
// sweep scaling curve, and a cross-scheduler checksum-identity bit. The
// committed artifact lives at bench/results/BENCH_sim_core.json.
//
// Scheduler mixes:
//  - Hold: the classic hold model — prime the queue with a large resident
//    population, then repeatedly (pop earliest, schedule a replacement a
//    random distance ahead). Steady-state schedule+pop cost at scale; this
//    is the figure the >=5x acceptance bar applies to.
//  - BurstDrain: schedule a full workload burst (duplicate-heavy near
//    timestamps), then drain. Insert-then-pop phases, like engine start-up.
//  - CancelChurn: schedule, cancel half by handle, drain the rest. The
//    tombstone/compaction path.
//  - EngineShape: the event population of an engine run on the paper
//    workload. 16384 arrivals spread over 12 h are all scheduled at t=0,
//    beside ~2000 near-term task events that keep re-scheduling themselves
//    a few milliseconds ahead; then drain. A uniform hold population
//    misses this shape: a calendar queue sized from the arrivals' span puts
//    every near-term event in one bucket.
//
// Usage: sim_core [--fast]. CACKLE_BENCH_OUT_DIR picks the artifact dir;
// CACKLE_SWEEP_THREADS is intentionally ignored here — the sweep section
// measures 1/2/4 threads itself.

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "sim/simulation.h"
#include "sim/sweep_runner.h"

namespace {

using namespace cackle;
using namespace cackle::bench;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SimOptions MakeOptions(SimScheduler scheduler) {
  SimOptions opts;
  opts.scheduler = scheduler;
  return opts;
}

struct Measurement {
  std::string name;       // e.g. "SimCore/Hold/Radix"
  double seconds = 0.0;
  double events_per_second = 0.0;  // 0 = report items_per_second instead
  double items_per_second = 0.0;
  int64_t iterations = 0;
};

/// Hold model: resident population `population`, `holds` pop+schedule
/// pairs. Each hold is 2 events of work (one executed, one scheduled).
Measurement RunHold(SimScheduler scheduler, const char* label,
                    int64_t population, int64_t holds) {
  Simulation sim(MakeOptions(scheduler));
  Rng rng(0xB0BACAFEULL);
  int64_t fired = 0;
  for (int64_t i = 0; i < population; ++i) {
    sim.ScheduleAt(static_cast<SimTimeMs>(rng.NextBounded(1 << 12)),
                   [&fired] { ++fired; });
  }
  const double start = NowSeconds();
  // Drive the hold loop from outside: run until at least one more event has
  // executed, then schedule one replacement per executed event so the
  // resident population stays constant.
  int64_t remaining = holds;
  while (remaining > 0) {
    const int64_t before = sim.executed_events();
    // The earliest event fires at its own timestamp; RunUntil with the
    // current frontier executes at least one event because the queue is
    // never empty here.
    while (sim.executed_events() == before) {
      sim.RunUntil(sim.NowMs() + 64);
    }
    const int64_t executed_now = sim.executed_events() - before;
    for (int64_t i = 0; i < executed_now; ++i) {
      sim.ScheduleAt(sim.NowMs() +
                         static_cast<SimTimeMs>(1 + rng.NextBounded(1 << 12)),
                     [&fired] { ++fired; });
    }
    remaining -= executed_now;
  }
  const double elapsed = NowSeconds() - start;
  Measurement m;
  m.name = std::string("SimCore/Hold/") + label;
  m.seconds = elapsed;
  m.iterations = holds;
  // One hold = one executed event + one schedule.
  m.events_per_second = elapsed > 0 ? 2.0 * static_cast<double>(holds) /
                                          elapsed
                                    : 0.0;
  return m;
}

Measurement RunBurstDrain(SimScheduler scheduler, const char* label,
                          int64_t events) {
  Simulation sim(MakeOptions(scheduler));
  Rng rng(0xDEADF00DULL);
  int64_t fired = 0;
  const double start = NowSeconds();
  for (int64_t i = 0; i < events; ++i) {
    // Duplicate-heavy: ~16 events per distinct millisecond.
    sim.ScheduleAt(static_cast<SimTimeMs>(rng.NextBounded(
                       static_cast<uint64_t>(events / 16 + 1))),
                   [&fired] { ++fired; });
  }
  sim.RunToCompletion();
  const double elapsed = NowSeconds() - start;
  Measurement m;
  m.name = std::string("SimCore/BurstDrain/") + label;
  m.seconds = elapsed;
  m.iterations = events;
  // One schedule + one execute per event.
  m.events_per_second =
      elapsed > 0 ? 2.0 * static_cast<double>(events) / elapsed : 0.0;
  return m;
}

Measurement RunCancelChurn(SimScheduler scheduler, const char* label,
                           int64_t events) {
  Simulation sim(MakeOptions(scheduler));
  Rng rng(0xC0FFEEULL);
  int64_t fired = 0;
  std::vector<uint64_t> ids;
  ids.reserve(static_cast<size_t>(events));
  const double start = NowSeconds();
  for (int64_t i = 0; i < events; ++i) {
    ids.push_back(sim.ScheduleAt(
        static_cast<SimTimeMs>(rng.NextBounded(1 << 20)),
        [&fired] { ++fired; }));
  }
  for (size_t i = 0; i < ids.size(); i += 2) sim.Cancel(ids[i]);
  sim.RunToCompletion();
  const double elapsed = NowSeconds() - start;
  Measurement m;
  m.name = std::string("SimCore/CancelChurn/") + label;
  m.seconds = elapsed;
  m.iterations = events;
  // Schedule + (cancel | execute) per event.
  m.events_per_second =
      elapsed > 0 ? 2.0 * static_cast<double>(events) / elapsed : 0.0;
  return m;
}

/// Near-term task event of RunEngineShape: re-schedules itself 1..64 ms
/// ahead until the shared budget of executions is spent.
struct NearTermEvent {
  Simulation* sim;
  Rng* rng;
  int64_t* remaining;
  void operator()() const {
    if (--*remaining <= 0) return;
    sim->ScheduleAfter(static_cast<SimTimeMs>(1 + rng->NextBounded(64)),
                       *this);
  }
};

Measurement RunEngineShape(SimScheduler scheduler, const char* label,
                           int64_t near_term_events) {
  constexpr int64_t kArrivals = 16384;
  constexpr int64_t kNearTermPopulation = 2000;
  Simulation sim(MakeOptions(scheduler));
  Rng rng(0x5EEDFACEULL);
  int64_t fired = 0;
  int64_t remaining = near_term_events;
  const double start = NowSeconds();
  for (int64_t i = 0; i < kArrivals; ++i) {
    sim.ScheduleAt(static_cast<SimTimeMs>(rng.NextBounded(
                       static_cast<uint64_t>(12 * kMillisPerHour))),
                   [&fired] { ++fired; });
  }
  for (int64_t i = 0; i < kNearTermPopulation; ++i) {
    sim.ScheduleAt(static_cast<SimTimeMs>(1 + rng.NextBounded(64)),
                   NearTermEvent{&sim, &rng, &remaining});
  }
  sim.RunToCompletion();
  const double elapsed = NowSeconds() - start;
  Measurement m;
  m.name = std::string("SimCore/EngineShape/") + label;
  m.seconds = elapsed;
  m.iterations = sim.executed_events();
  // One schedule + one execute per event.
  m.events_per_second =
      elapsed > 0 ? 2.0 * static_cast<double>(sim.executed_events()) / elapsed
                  : 0.0;
  return m;
}

/// End-to-end: a small engine run; throughput in queries/s.
Measurement RunEndToEnd(SimScheduler scheduler, const char* label,
                        int64_t queries) {
  WorkloadOptions wl;
  wl.num_queries = queries;
  wl.duration_ms = kMillisPerHour / 6;
  wl.arrival_period_ms = kMillisPerHour / 18;
  wl.seed = 4242;
  WorkloadGenerator gen(&Library());
  const auto arrivals = gen.Generate(wl);
  CostModel cost;
  EngineOptions opts;
  opts.dynamic = DefaultDynamicOptions();
  opts.sim.scheduler = scheduler;
  const double start = NowSeconds();
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, Library());
  const double elapsed = NowSeconds() - start;
  Measurement m;
  m.name = std::string("SimCore/EngineQueries/") + label;
  m.seconds = elapsed;
  m.iterations = r.queries_completed;
  m.items_per_second =
      elapsed > 0 ? static_cast<double>(r.queries_completed) / elapsed : 0.0;
  return m;
}

/// One sweep cell for the parallel-speedup section: a small engine run.
uint64_t SweepCellChecksum(int cell, int64_t queries) {
  WorkloadOptions wl;
  wl.num_queries = queries;
  wl.duration_ms = kMillisPerHour / 12;
  wl.arrival_period_ms = kMillisPerHour / 36;
  wl.seed = SweepRunner::CellSeed(99, cell);
  WorkloadGenerator gen(&Library());
  const auto arrivals = gen.Generate(wl);
  CostModel cost;
  EngineOptions opts;
  opts.dynamic = DefaultDynamicOptions();
  CackleEngine engine(&cost, opts);
  const EngineResult r = engine.Run(arrivals, Library());
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(r.makespan_ms));
  mix(static_cast<uint64_t>(r.queries_completed));
  mix(static_cast<uint64_t>(r.tasks_on_elastic));
  return h;
}

struct SweepPoint {
  int threads = 1;
  double seconds = 0.0;
  double speedup = 1.0;
  uint64_t checksum = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool fast = FastMode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }

  PrintHeader("Simulation-kernel microbench",
              "Event throughput (hold / burst-drain / cancel-churn / "
              "engine-shape), engine queries/s, parallel sweep scaling.");

  const int64_t population = fast ? 20'000 : 1'000'000;
  const int64_t holds = fast ? 200'000 : 2'000'000;
  const int64_t burst = fast ? 200'000 : 2'000'000;
  const int64_t churn = fast ? 200'000 : 2'000'000;
  const int64_t near_term = fast ? 200'000 : 2'000'000;
  const int64_t e2e_queries = fast ? 40 : 150;

  std::vector<Measurement> ms;
  const struct {
    SimScheduler scheduler;
    const char* label;
  } schedulers[] = {{SimScheduler::kBinaryHeap, "Heap"},
                    {SimScheduler::kRadixHeap, "Radix"}};
  // Scheduler mixes run best-of-N: one repetition is at the mercy of OS
  // jitter; the max throughput over a few repetitions is the stable
  // estimate of what the code can do.
  const int reps = fast ? 1 : 3;
  const auto best = [reps](const std::function<Measurement()>& run) {
    Measurement best_m = run();
    for (int r = 1; r < reps; ++r) {
      Measurement m = run();
      if (m.events_per_second > best_m.events_per_second) best_m = m;
    }
    return best_m;
  };
  for (const auto& s : schedulers) {
    ms.push_back(best(
        [&] { return RunHold(s.scheduler, s.label, population, holds); }));
    ms.push_back(
        best([&] { return RunBurstDrain(s.scheduler, s.label, burst); }));
    ms.push_back(
        best([&] { return RunCancelChurn(s.scheduler, s.label, churn); }));
    ms.push_back(best(
        [&] { return RunEngineShape(s.scheduler, s.label, near_term); }));
    ms.push_back(RunEndToEnd(s.scheduler, s.label, e2e_queries));
  }

  // Parallel sweep: the same cell grid at 1/2/4 threads. Checksums prove
  // the merged results are thread-count invariant; the timing column is an
  // honest measurement on whatever cores this host actually has.
  const int sweep_cells = fast ? 8 : 16;
  const int64_t sweep_queries = fast ? 15 : 40;
  std::vector<SweepPoint> sweep;
  for (const int threads : {1, 2, 4}) {
    SweepRunner runner(threads);
    const double start = NowSeconds();
    const std::vector<uint64_t> cells = runner.Map<uint64_t>(
        sweep_cells,
        [&](int cell) { return SweepCellChecksum(cell, sweep_queries); });
    SweepPoint p;
    p.threads = threads;
    p.seconds = NowSeconds() - start;
    p.checksum = 1469598103934665603ULL;
    for (const uint64_t c : cells) {
      p.checksum = (p.checksum ^ c) * 1099511628211ULL;
    }
    if (!sweep.empty() && p.seconds > 0) {
      p.speedup = sweep.front().seconds / p.seconds;
    }
    sweep.push_back(p);
  }

  // Console report.
  double hold_speedup = 0.0, burst_speedup = 0.0, churn_speedup = 0.0,
         shape_speedup = 0.0;
  const auto find = [&ms](const std::string& name) -> const Measurement& {
    for (const Measurement& m : ms) {
      if (m.name == name) return m;
    }
    static const Measurement none;
    return none;
  };
  const auto ratio = [&find](const char* mix) {
    const double heap =
        find(std::string("SimCore/") + mix + "/Heap").events_per_second;
    const double radix =
        find(std::string("SimCore/") + mix + "/Radix").events_per_second;
    return heap > 0 ? radix / heap : 0.0;
  };
  hold_speedup = ratio("Hold");
  burst_speedup = ratio("BurstDrain");
  churn_speedup = ratio("CancelChurn");
  shape_speedup = ratio("EngineShape");
  for (const Measurement& m : ms) {
    const double v =
        m.events_per_second > 0 ? m.events_per_second : m.items_per_second;
    std::cout << m.name << ": "
              << static_cast<int64_t>(v) << (m.events_per_second > 0
                                                 ? " events/s"
                                                 : " queries/s")
              << "\n";
  }
  std::cout << "radix vs heap: hold " << hold_speedup << "x, burst "
            << burst_speedup << "x, cancel-churn " << churn_speedup
            << "x, engine-shape " << shape_speedup << "x\n";
  bool checksums_identical = true;
  for (const SweepPoint& p : sweep) {
    checksums_identical &= p.checksum == sweep.front().checksum;
    std::cout << "sweep " << p.threads << " threads: " << p.seconds
              << "s, speedup " << p.speedup << "x\n";
  }
  std::cout << "sweep checksums thread-count invariant: "
            << (checksums_identical ? "yes" : "NO") << "\n";

  // Artifact.
  std::string path = "BENCH_sim_core.json";
  if (const char* dir = std::getenv("CACKLE_BENCH_OUT_DIR");
      dir != nullptr && dir[0] != '\0') {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  JsonWriter w(out);
  w.BeginObject();
  w.Field("schema_version", static_cast<int64_t>(1));
  w.Field("bench", "sim_core");
  w.Field("fast_mode", fast);
  w.Key("context");
  w.BeginObject();
  w.Field("available_cores",
          static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.EndObject();
  w.Key("benchmarks");
  w.BeginArray();
  for (const Measurement& m : ms) {
    w.BeginObject();
    w.Field("name", m.name);
    w.Field("run_name", m.name);
    w.Field("run_type", "iteration");
    w.Field("iterations", m.iterations);
    w.Field("real_time", m.seconds * 1e9);
    w.Field("time_unit", "ns");
    if (m.events_per_second > 0) {
      w.Field("events_per_second", m.events_per_second);
    } else {
      w.Field("items_per_second", m.items_per_second);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("summary");
  w.BeginObject();
  w.Field("radix_vs_heap_hold", hold_speedup);
  w.Field("radix_vs_heap_burst_drain", burst_speedup);
  w.Field("radix_vs_heap_cancel_churn", churn_speedup);
  w.Field("radix_vs_heap_engine_shape", shape_speedup);
  w.Key("sweep");
  w.BeginArray();
  for (const SweepPoint& p : sweep) {
    w.BeginObject();
    w.Field("threads", p.threads);
    w.Field("seconds", p.seconds);
    w.Field("speedup_vs_1_thread", p.speedup);
    w.Key("checksum").Uint(p.checksum);
    w.EndObject();
  }
  w.EndArray();
  w.Field("sweep_checksums_identical", checksums_identical);
  w.EndObject();
  w.EndObject();
  out << "\n";
  std::cout << "artifact: " << path << "\n";

  return checksums_identical ? 0 : 1;
}
