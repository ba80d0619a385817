// Differential bit-identity of the two event schedulers at engine scope.
//
// The Simulation contract says kBinaryHeap and kRadixHeap execute the
// exact same event sequence; this test enforces it where it matters — a
// full engine run. A representative mixed workload (with faults, so the
// cancel paths are hot: straggler speculation, retries, timeouts) and the
// reclamation_storm chaos scenario each run under both schedulers, and
// every field of the EngineResult, including the raw per-query latency
// samples, must match exactly.

#include <gtest/gtest.h>

#include <vector>

#include "cloud/cost_model.h"
#include "engine/engine.h"
#include "engine/scenario.h"
#include "workload/profile_library.h"
#include "workload/workload_generator.h"

namespace cackle {
namespace {

std::vector<QueryArrival> MakeWorkload(const ProfileLibrary& lib, int64_t n,
                                       SimTimeMs duration, uint64_t seed,
                                       double batch_fraction = 0.0) {
  WorkloadGenerator gen(&lib);
  WorkloadOptions opts;
  opts.num_queries = n;
  opts.duration_ms = duration;
  opts.arrival_period_ms = duration / 3;
  opts.batch_fraction = batch_fraction;
  opts.seed = seed;
  return gen.Generate(opts);
}

void ExpectIdenticalResults(const EngineResult& a, const EngineResult& b) {
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  EXPECT_DOUBLE_EQ(a.compute_cost(), b.compute_cost());
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.tasks_on_vms, b.tasks_on_vms);
  EXPECT_EQ(a.tasks_on_elastic, b.tasks_on_elastic);
  EXPECT_EQ(a.peak_concurrent_tasks, b.peak_concurrent_tasks);
  EXPECT_EQ(a.tasks_retried, b.tasks_retried);
  EXPECT_EQ(a.vms_interrupted, b.vms_interrupted);
  EXPECT_EQ(a.batch_tasks_delayed, b.batch_tasks_delayed);
  EXPECT_EQ(a.batch_tasks_escalated, b.batch_tasks_escalated);
  EXPECT_EQ(a.shuffle_fallback_bytes, b.shuffle_fallback_bytes);
  EXPECT_EQ(a.shuffle_written_bytes, b.shuffle_written_bytes);
  EXPECT_EQ(a.elastic_throttled, b.elastic_throttled);
  EXPECT_EQ(a.elastic_failures, b.elastic_failures);
  EXPECT_EQ(a.store_retries, b.store_retries);
  EXPECT_EQ(a.vm_launch_failures, b.vm_launch_failures);
  EXPECT_EQ(a.shuffle_nodes_crashed, b.shuffle_nodes_crashed);
  EXPECT_EQ(a.shuffle_partitions_lost, b.shuffle_partitions_lost);
  EXPECT_EQ(a.stages_reexecuted, b.stages_reexecuted);
  EXPECT_EQ(a.tasks_speculated, b.tasks_speculated);
  EXPECT_EQ(a.queries_shed, b.queries_shed);
  EXPECT_EQ(a.queries_deferred, b.queries_deferred);
  EXPECT_EQ(a.admission_queue_peak, b.admission_queue_peak);
  EXPECT_EQ(a.retry_budget_exhausted, b.retry_budget_exhausted);
  EXPECT_EQ(a.hedged_reads, b.hedged_reads);
  EXPECT_EQ(a.hedged_wins, b.hedged_wins);
  EXPECT_EQ(a.storm_reclaims, b.storm_reclaims);
  EXPECT_EQ(a.store_circuit_trips, b.store_circuit_trips);
  EXPECT_EQ(a.store_circuit_rejections, b.store_circuit_rejections);
  EXPECT_EQ(a.tenant_cap_deferrals, b.tenant_cap_deferrals);
  EXPECT_EQ(a.tenant_queue_peak, b.tenant_queue_peak);
  // Bit-identical per-query latencies, not just identical percentiles.
  ASSERT_EQ(a.latencies_s.samples(), b.latencies_s.samples());
  ASSERT_EQ(a.batch_latencies_s.samples(), b.batch_latencies_s.samples());
  // Per-tenant slices must match exactly too: same tenants, same tallies,
  // same invoice, same raw latency samples.
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  auto bt = b.tenants.begin();
  for (auto at = a.tenants.begin(); at != a.tenants.end(); ++at, ++bt) {
    EXPECT_EQ(at->first, bt->first);
    EXPECT_EQ(at->second.queries_completed, bt->second.queries_completed);
    EXPECT_EQ(at->second.queries_shed, bt->second.queries_shed);
    EXPECT_EQ(at->second.queries_deferred, bt->second.queries_deferred);
    EXPECT_DOUBLE_EQ(at->second.invoice_dollars, bt->second.invoice_dollars);
    ASSERT_EQ(at->second.latencies_s.samples(),
              bt->second.latencies_s.samples());
  }
}

EngineResult RunWith(SimScheduler scheduler, EngineOptions opts,
                     const std::vector<QueryArrival>& arrivals,
                     const ProfileLibrary& lib, const CostModel& cost) {
  opts.sim.scheduler = scheduler;
  CackleEngine engine(&cost, opts);
  return engine.Run(arrivals, lib);
}

TEST(SimDifferentialTest, RepresentativeWorkloadIsBitIdentical) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  // Mixed interactive/batch with faults: spot interruptions, stragglers,
  // and elastic failures keep the Cancel()/re-schedule paths hot, which is
  // exactly where scheduler implementations could diverge.
  const auto arrivals =
      MakeWorkload(lib, 120, kMillisPerHour / 4, 733, /*batch_fraction=*/0.2);
  CostModel cost;

  EngineOptions opts;
  opts.spot_mean_lifetime_hours = 0.2;
  opts.faults.elastic_failure_rate = 0.01;
  opts.faults.elastic_straggler_rate = 0.02;
  opts.faults.elastic_straggler_slowdown = 4.0;

  const EngineResult heap =
      RunWith(SimScheduler::kBinaryHeap, opts, arrivals, lib, cost);
  const EngineResult radix =
      RunWith(SimScheduler::kRadixHeap, opts, arrivals, lib, cost);

  EXPECT_GT(heap.queries_completed, 0);
  EXPECT_GT(heap.tasks_retried + heap.tasks_speculated, 0)
      << "workload did not exercise the cancel paths";
  ExpectIdenticalResults(heap, radix);
}

// Multi-tenant admission control + retry-budget deferral: the DRR drain,
// per-tenant shed pass, and deferred-task re-admission all execute on
// coordinator ticks, so simultaneous re-admission events are exactly where
// FIFO-among-ties could diverge between scheduler backends. Locks down the
// ordering guarantee for the per-tenant queues.
TEST(SimDifferentialTest, MultiTenantAdmissionAndDeferralIsBitIdentical) {
  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  WorkloadOptions wopts;
  wopts.num_queries = 160;
  wopts.duration_ms = kMillisPerHour / 4;
  wopts.arrival_period_ms = wopts.duration_ms / 3;
  wopts.batch_fraction = 0.15;
  wopts.num_tenants = 5;
  wopts.tenant_skew = 1.2;
  wopts.seed = 917;
  const auto arrivals = gen.Generate(wopts);
  CostModel cost;

  EngineOptions opts;
  opts.admission.max_outstanding_tasks = 40;
  opts.admission.shed_after_ms = 5 * kMillisPerMinute;
  opts.admission.per_tenant[0].weight = 3;
  opts.admission.per_tenant[1].max_outstanding_tasks = 8;
  opts.admission.per_tenant[2].shed_after_ms = kMillisPerMinute;
  opts.tenant_elastic_limits[0] = 24;
  opts.elastic_retry.max_elapsed_ms = 2'000;  // retry budget -> deferrals
  opts.faults.elastic_concurrency_limit = 48;

  const EngineResult heap =
      RunWith(SimScheduler::kBinaryHeap, opts, arrivals, lib, cost);
  const EngineResult radix =
      RunWith(SimScheduler::kRadixHeap, opts, arrivals, lib, cost);

  EXPECT_GT(heap.queries_completed, 0);
  EXPECT_GT(heap.queries_deferred, 0)
      << "workload did not exercise the admission queues";
  EXPECT_GT(heap.tenants.size(), 1u);
  ExpectIdenticalResults(heap, radix);
}

TEST(SimDifferentialTest, ReclamationStormScenarioIsBitIdentical) {
  auto loaded = LoadNamedScenario("reclamation_storm");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ChaosScenario& scenario = *loaded;

  ProfileLibrary lib = ProfileLibrary::BuiltinTpch();
  WorkloadGenerator gen(&lib);
  const auto arrivals = gen.Generate(scenario.workload);
  CostModel cost;

  const EngineOptions opts = scenario.ToEngineOptions();
  const EngineResult heap =
      RunWith(SimScheduler::kBinaryHeap, opts, arrivals, lib, cost);
  const EngineResult radix =
      RunWith(SimScheduler::kRadixHeap, opts, arrivals, lib, cost);

  EXPECT_GT(heap.storm_reclaims, 0)
      << "scenario did not trigger reclamation storms";
  ExpectIdenticalResults(heap, radix);
}

}  // namespace
}  // namespace cackle
