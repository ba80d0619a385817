// The three simulator workloads: model_paper (analytical model, Section 5.1
// line-up), engine_paper (CackleEngine on the Table 1 workload) and
// engine_chaos (full_chaos faults and admission over a multi-tenant
// workload). Every layer call the benchmark makes sits inside a span.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/billing.h"
#include "cloud/cost_model.h"
#include "common/metric_names.h"
#include "common/observability.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/scenario.h"
#include "harness.h"
#include "model/analytical_model.h"
#include "sim/simulation.h"
#include "strategy/cost_calculator.h"
#include "strategy/dynamic_strategy.h"
#include "strategy/oracle.h"
#include "strategy/strategy.h"
#include "workload/demand.h"
#include "workload/profile_library.h"
#include "workload/workload_generator.h"

namespace perfbench {
namespace {

using namespace cackle;
namespace mn = cackle::metric_names;

// Stream tags separating the workload and engine seeds drawn from the one
// --seed (engine_chaos keeps its scenario file's fault seed).
constexpr uint64_t kWorkloadStream = 0x776bULL;
constexpr uint64_t kEngineStream = 0x656eULL;
// The engine seeds its DynamicStrategy with this stream of its own seed;
// the replay probe uses the same one so it replays the engine's strategy.
constexpr uint64_t kEngineDynamicStream = 0x5eedULL;

constexpr int kSetupReps = 21;
constexpr int kMinPasses = 3;

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Table 1: 16384 queries over 12 h, 30 % baseline load, 3 h period.
WorkloadOptions PaperWorkload(uint64_t seed) {
  WorkloadOptions opts;
  opts.num_queries = 16384;
  opts.duration_ms = 12 * kMillisPerHour;
  opts.baseline_load = 0.30;
  opts.arrival_period_ms = 3 * kMillisPerHour;
  opts.seed = Rng::StreamSeed(seed, kWorkloadStream);
  return opts;
}

struct SimSetup {
  std::unique_ptr<ProfileLibrary> library;
  std::vector<QueryArrival> arrivals;
  std::unique_ptr<DemandCurve> demand;  // model_paper only
};

/// Builds the profile library, the arrivals and (optionally) the demand
/// curve `kSetupReps` times; reports the median of each step and keeps the
/// last build.
SimSetup TimedSetup(const WorkloadOptions& wl, bool with_demand,
                    RunResult* out) {
  SimSetup setup;
  std::vector<double> total, generate, demand;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SimSetup s;
    const double t0 = NowSeconds();
    s.library = std::make_unique<ProfileLibrary>(ProfileLibrary::BuiltinTpch());
    const double t1 = NowSeconds();
    s.arrivals = WorkloadGenerator(s.library.get()).Generate(wl);
    const double t2 = NowSeconds();
    if (with_demand) {
      s.demand = std::make_unique<DemandCurve>(
          DemandCurve::FromWorkload(s.arrivals, *s.library));
    }
    const double t3 = NowSeconds();
    total.push_back(t3 - t0);
    generate.push_back(t2 - t1);
    demand.push_back(t3 - t2);
    setup = std::move(s);
  }
  out->E2e("setup_s", Median(total), "s", kSetupReps);
  out->Layer("workload.generate_ms", Median(generate) * 1e3, "ms", kSetupReps);
  if (with_demand) {
    out->Layer("workload.demand_curve_ms", Median(demand) * 1e3, "ms",
               kSetupReps);
  }
  return setup;
}

// ------------------------------------------------------------ model_paper

struct ModelPassOutput {
  std::string fingerprint;
  double dynamic_compute = 0.0;
  double oracle = 0.0;
  std::vector<std::pair<std::string, double>> compute_costs;
};

ModelPassOutput ModelPass(const CostModel& cost, const DemandCurve& demand,
                          SpanRecorder* rec, Observability* obs) {
  // The Section 5.1 line-up, fresh each pass: strategies are stateful.
  std::vector<std::unique_ptr<ProvisioningStrategy>> lineup;
  lineup.push_back(std::make_unique<FixedStrategy>(0));
  lineup.push_back(std::make_unique<FixedStrategy>(500));
  lineup.push_back(std::make_unique<MeanStrategy>(1.0));
  lineup.push_back(std::make_unique<MeanStrategy>(2.0));
  lineup.push_back(std::make_unique<PredictiveStrategy>(cost.vm_startup_ms));
  auto dynamic = std::make_unique<DynamicStrategy>(&cost);
  DynamicStrategy* dyn = dynamic.get();
  if (obs != nullptr) dyn->SetObservability(&obs->metrics, &obs->tracer);
  lineup.push_back(std::move(dynamic));

  ModelOptions options;
  options.include_shuffle = true;
  const AnalyticalModel model(&cost);
  ModelPassOutput out;
  std::ostringstream fp;
  for (auto& strategy : lineup) {
    const bool is_dynamic = strategy.get() == dyn;
    ScopedSpan span(rec, "AnalyticalModel::Run " + strategy->name(),
                    is_dynamic ? "strategy.dynamic" : "strategy.baselines");
    const ModelResult r = model.Run(strategy.get(), demand, options);
    out.compute_costs.emplace_back(strategy->name(), r.compute_cost());
    if (is_dynamic) out.dynamic_compute = r.compute_cost();
    fp << strategy->name() << "=" << Hex(r.total()) << ";";
  }
  {
    ScopedSpan span(rec, "ComputeOracleCost", "strategy.oracle");
    out.oracle = ComputeOracleCost(demand.tasks_per_second(), cost).total();
  }
  fp << "oracle=" << Hex(out.oracle);
  out.fingerprint = fp.str();
  return out;
}

}  // namespace

RunResult RunModelPaper(const RunConfig& config) {
  RunResult out;
  const CostModel cost;
  const SimSetup setup =
      TimedSetup(PaperWorkload(config.seed), /*with_demand=*/true, &out);
  const DemandCurve& demand = *setup.demand;
  const double horizon_s = static_cast<double>(demand.duration_seconds());

  SpanRecorder rec(config.trace);
  std::vector<ModelPassOutput> outputs;
  MetricsRegistry observed_metrics;  // the last observed pass's counters
  const PassTimes times =
      TimePasses(config, kMinPasses, [&](int, bool observed) {
        auto obs = observed ? std::make_unique<Observability>() : nullptr;
        ScopedSpan span(&rec, observed ? "pass_observed" : "pass", "bench");
        outputs.push_back(ModelPass(cost, demand, &rec, obs.get()));
        if (observed) observed_metrics = std::move(obs->metrics);
      });
  AddPassMetrics(times, config, &out);
  const std::vector<double>& plain = times.wall;

  // Output checks: every pass computes the same costs, and no strategy
  // beats the compute-cost oracle on the same demand.
  out.attempted = static_cast<int64_t>(outputs.size());
  for (const ModelPassOutput& o : outputs) {
    if (o.fingerprint != outputs.front().fingerprint) {
      out.Fail("model_paper: pass outputs differ (observed vs plain or "
               "run to run)");
    }
  }
  const ModelPassOutput& first = outputs.front();
  for (const auto& [name, compute] : first.compute_costs) {
    if (!(compute >= first.oracle * (1.0 - 1e-12)) || !std::isfinite(compute)) {
      out.Fail("model_paper: " + name + " compute cost " + Hex(compute) +
               " is below the oracle " + Hex(first.oracle));
    }
  }
  const double cost_over_oracle = first.dynamic_compute / first.oracle;
  out.E2e("served_frac", 1.0, "ratio");
  out.E2e("peak_rss_mb", PeakRssMb(), "MB");
  out.Layer("strategy.cost_over_oracle", cost_over_oracle, "ratio");
  out.Layer("model.sim_s_per_s", horizon_s / Median(plain), "1/s",
            static_cast<int64_t>(plain.size()));
  out.notes.push_back("cost_over_oracle " + std::to_string(cost_over_oracle) +
                      " (dynamic compute / oracle compute, deterministic)");
  out.notes.push_back("sim_s_per_s " +
                      std::to_string(horizon_s / Median(plain)) +
                      " simulated s per host s (median of " +
                      std::to_string(plain.size()) + " passes)");

  if (config.trace) {
    LayerLedger ledger = LayerLedger::FromSpans(
        rec.spans(), "pass", static_cast<int>(plain.size()));
    const auto& rows = ledger.rows();
    auto row = [&](const char* name) {
      auto it = rows.find(name);
      return it == rows.end() ? 0.0 : it->second;
    };
    const double dynamic_s = row("strategy.dynamic");
    out.Layer("strategy.dynamic_s", dynamic_s, "s");
    out.Layer("strategy.baselines_s", row("strategy.baselines"), "s");
    out.Layer("strategy.oracle_s", row("strategy.oracle"), "s");
    out.Layer("strategy.target_us_per_sim_s", dynamic_s / horizon_s * 1e6,
              "us");

    // model.shuffle_s: the shuffle layer's share of one Run, from the same
    // run with the shuffle model on and off (median of 3 each).
    std::vector<double> with, without;
    for (int rep = 0; rep < 3; ++rep) {
      for (const bool shuffle : {true, false}) {
        FixedStrategy fixed0(0);
        ModelOptions options;
        options.include_shuffle = shuffle;
        ScopedSpan span(&rec, shuffle ? "probe Run(fixed_0) shuffle on"
                                      : "probe Run(fixed_0) shuffle off",
                        "probe");
        const double t0 = NowSeconds();
        (void)AnalyticalModel(&cost).Run(&fixed0, demand, options);
        (shuffle ? with : without).push_back(NowSeconds() - t0);
      }
    }
    const double shuffle_s = std::max(0.0, Median(with) - Median(without));
    out.Layer("model.shuffle_s", shuffle_s, "s", 3);
    // Each of the six Run calls models the shuffle layer once.
    ledger.Move("strategy.baselines", "model.shuffle", 5 * shuffle_s);
    ledger.Move("strategy.dynamic", "model.shuffle", shuffle_s);
    out.AddLedger(ledger);

    const MetricsRegistry& m = observed_metrics;
    out.Layer("strategy.updates",
              static_cast<double>(m.CounterValue(mn::kStrategyUpdates)),
              "count");
    out.Layer("strategy.expert_switches",
              static_cast<double>(m.CounterValue(mn::kStrategyExpertSwitches)),
              "count");
    WriteTraceFile(config, rec, &out);
  }
  return out;
}

// ------------------------------------------------------------ engine runs

namespace {

struct EngineWorkload {
  WorkloadOptions workload;
  EngineOptions engine;
};

struct EnginePassOutput {
  std::string fingerprint;
  EngineResult result;
};

std::string EngineFingerprint(const EngineResult& r) {
  std::ostringstream fp;
  fp << "completed=" << r.queries_completed << ";shed=" << r.queries_shed
     << ";deferred=" << r.queries_deferred << ";makespan=" << r.makespan_ms
     << ";vm_tasks=" << r.tasks_on_vms << ";elastic_tasks="
     << r.tasks_on_elastic << ";retried=" << r.tasks_retried
     << ";latencies=" << r.latencies_s.size();
  if (!r.latencies_s.empty()) {
    fp << ";p99=" << Hex(r.latencies_s.Percentile(99));
  }
  for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
    fp << ";bill" << c << "="
       << Hex(r.billing.CategoryDollars(static_cast<CostCategory>(c)));
  }
  for (const auto& [tenant, t] : r.tenants) {
    fp << ";t" << tenant << "=" << t.queries_completed << "/"
       << t.queries_shed;
  }
  return fp.str();
}

/// Canonical invoice fold: real tenants ascending, the overhead row last
/// (the order the ledger's exactness invariant is stated in). Returns the
/// largest |fold - billing| over categories.
double InvoiceClosureError(const CostLedger& ledger,
                           const BillingMeter& billing) {
  double worst = 0.0;
  for (size_t c = 0; c < static_cast<size_t>(CostCategory::kNumCategories);
       ++c) {
    double fold = 0.0;
    const auto& invoices = ledger.tenant_invoices();
    for (const auto& [tenant, invoice] : invoices) {
      if (tenant == CostLedger::kOverheadTenantId) continue;
      fold += invoice.dollars[c];
    }
    auto overhead = invoices.find(CostLedger::kOverheadTenantId);
    if (overhead != invoices.end()) fold += overhead->second.dollars[c];
    worst = std::max(
        worst,
        std::abs(fold - billing.CategoryDollars(static_cast<CostCategory>(c))));
  }
  return worst;
}

/// Hold model through the public Simulation API: a resident population of
/// `population` events, then `holds` rounds of (execute the earliest,
/// schedule a replacement). Returns host ns per hold.
double HoldNsPerEvent(int64_t population, int64_t holds) {
  Simulation sim;
  Rng rng(0xB0BACAFEULL);
  int64_t fired = 0;
  for (int64_t i = 0; i < population; ++i) {
    sim.ScheduleAt(static_cast<SimTimeMs>(rng.NextBounded(1 << 12)),
                   [&fired] { ++fired; });
  }
  const double t0 = NowSeconds();
  int64_t remaining = holds;
  while (remaining > 0) {
    const int64_t before = sim.executed_events();
    while (sim.executed_events() == before) sim.RunUntil(sim.NowMs() + 64);
    const int64_t executed = sim.executed_events() - before;
    for (int64_t i = 0; i < executed; ++i) {
      sim.ScheduleAt(
          sim.NowMs() + static_cast<SimTimeMs>(1 + rng.NextBounded(1 << 12)),
          [&fired] { ++fired; });
    }
    remaining -= executed;
  }
  return (NowSeconds() - t0) * 1e9 / static_cast<double>(holds);
}

RunResult RunEngineWorkload(const RunConfig& config,
                            const EngineWorkload& spec) {
  RunResult out;
  const CostModel cost;
  const SimSetup setup = TimedSetup(spec.workload, /*with_demand=*/false, &out);
  const int64_t arrivals = static_cast<int64_t>(setup.arrivals.size());

  SpanRecorder rec(config.trace);
  std::vector<std::string> fingerprints;
  EngineResult first;
  // From the observed passes: the program's own counters (last pass) and
  // the worst invoice-vs-billing gap. The span-heavy tracer is dropped as
  // soon as each observed pass ends.
  MetricsRegistry observed_metrics;
  double closure_usd = 0.0;
  const PassTimes times = TimePasses(
      config, kMinPasses, [&](int pass, bool observed) {
        auto obs = observed ? std::make_unique<Observability>() : nullptr;
        EngineOptions opts = spec.engine;
        opts.observability = obs.get();
        EngineResult r;
        {
          ScopedSpan span(&rec, observed ? "pass_observed" : "pass", "bench");
          ScopedSpan run(&rec, "CackleEngine::Run", "engine");
          CackleEngine engine(&cost, opts);
          r = engine.Run(setup.arrivals, *setup.library);
        }
        fingerprints.push_back(EngineFingerprint(r));
        if (pass == 0) first = std::move(r);
        if (observed) {
          closure_usd = std::max(
              closure_usd, obs->ledger.finalized()
                               ? InvoiceClosureError(obs->ledger, r.billing)
                               : 1.0);
          observed_metrics = std::move(obs->metrics);
        }
      });
  AddPassMetrics(times, config, &out);
  const std::vector<double>& plain = times.wall;

  // Output checks.
  out.attempted = static_cast<int64_t>(fingerprints.size());
  for (const std::string& fp : fingerprints) {
    if (fp != fingerprints.front()) {
      out.Fail(config.workload +
               ": engine outcome differs between passes (traced vs "
               "untraced or run to run)");
    }
  }
  if (first.queries_completed + first.queries_shed != arrivals) {
    out.Fail(config.workload + ": completed " +
             std::to_string(first.queries_completed) + " + shed " +
             std::to_string(first.queries_shed) + " != arrivals " +
             std::to_string(arrivals));
  }
  const double oracle =
      ComputeOracleCost(first.demand_series, cost).total();
  const double cost_over_oracle = first.compute_cost() / oracle;
  const double p99 = first.latencies_s.Percentile(99);
  const double failed_frac =
      static_cast<double>(arrivals - first.queries_completed) /
      static_cast<double>(arrivals);
  const double sim_s = static_cast<double>(first.makespan_ms) / 1000.0;
  const double median_pass = Median(plain);
  const int64_t n_plain = static_cast<int64_t>(plain.size());

  out.E2e("served_frac", 1.0 - failed_frac, "ratio");
  out.E2e("peak_rss_mb", PeakRssMb(), "MB");
  out.Layer("engine.queries_per_s",
            static_cast<double>(first.queries_completed) / median_pass, "1/s",
            n_plain);
  out.Layer("engine.sim_s_per_s", sim_s / median_pass, "1/s", n_plain);
  out.Layer("engine.cost_over_oracle", cost_over_oracle, "ratio");
  out.Layer("engine.sim_p99_latency_s", p99, "s",
            static_cast<int64_t>(first.latencies_s.size()));
  out.Layer("engine.failed_frac", failed_frac, "ratio");
  char line[256];
  std::snprintf(line, sizeof(line),
                "arrivals %lld, completed %lld, shed %lld; cost_over_oracle "
                "%.6f; interactive p99 %.3f sim s over %zu queries",
                static_cast<long long>(arrivals),
                static_cast<long long>(first.queries_completed),
                static_cast<long long>(first.queries_shed), cost_over_oracle,
                p99, first.latencies_s.size());
  out.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "sim_s_per_s %.1f, engine_queries_per_s %.1f (median of "
                "%lld passes)",
                sim_s / median_pass,
                static_cast<double>(first.queries_completed) / median_pass,
                static_cast<long long>(n_plain));
  out.notes.push_back(line);

  if (config.trace) {
    const MetricsRegistry& m = observed_metrics;
    auto counter = [&](const std::string& name) {
      return static_cast<double>(m.CounterValue(name));
    };
    auto gauge = [&](const std::string& name) {
      const Gauge* g = m.FindGauge(name);
      return g == nullptr ? 0.0 : g->value();
    };
    LayerLedger ledger = LayerLedger::FromSpans(
        rec.spans(), "pass", static_cast<int>(n_plain));
    const double run_s = ledger.rows().at("engine");

    // Strategy share, measured from outside: replay a fresh DynamicStrategy
    // over the engine's own demand series (one Target per simulated second,
    // as the coordinator calls it).
    std::vector<double> replays;
    for (int rep = 0; rep < 3; ++rep) {
      DynamicStrategyOptions dyn = spec.engine.dynamic;
      dyn.seed = Rng::StreamSeed(spec.engine.seed, kEngineDynamicStream);
      DynamicStrategy replay(&cost, dyn);
      ScopedSpan span(&rec, "probe EvaluateStrategy replay", "probe");
      const double t0 = NowSeconds();
      (void)EvaluateStrategy(&replay, first.demand_series, cost);
      replays.push_back(NowSeconds() - t0);
    }
    const double replay_s = Median(replays);

    // Event-core share: hold-model cost at the run's peak queue size.
    const double events = counter(mn::kSimEventsExecuted);
    const int64_t population = std::max<int64_t>(
        1, static_cast<int64_t>(gauge(mn::kSimPeakQueueEntries)));
    const int64_t holds = std::clamp<int64_t>(static_cast<int64_t>(events),
                                              100'000, 2'000'000);
    double hold_ns = 0.0;
    {
      ScopedSpan span(&rec, "probe Simulation hold model", "probe");
      hold_ns = HoldNsPerEvent(population, holds);
    }
    const double est_core_s = events * hold_ns * 1e-9;
    ledger.Move("engine", "strategy", replay_s);
    ledger.Move("engine", "sim", est_core_s);
    out.AddLedger(ledger);

    const double horizon_s = static_cast<double>(first.demand_series.size());
    out.Layer("strategy.replay_s", replay_s, "s", 3);
    out.Layer("strategy.target_us_per_sim_s", replay_s / horizon_s * 1e6, "us",
              3);
    out.Layer("strategy.updates", counter(mn::kStrategyUpdates), "count");
    out.Layer("strategy.expert_switches",
              counter(mn::kStrategyExpertSwitches), "count");
    out.Layer("sim.events_executed", events, "count");
    out.Layer("sim.events_scheduled", counter(mn::kSimEventsScheduled),
              "count");
    out.Layer("sim.events_cancelled", counter(mn::kSimEventsCancelled),
              "count");
    out.Layer("sim.peak_queue_entries", gauge(mn::kSimPeakQueueEntries),
              "count");
    out.Layer("sim.hold_ns_per_event", hold_ns, "ns");
    out.Layer("sim.est_core_s", est_core_s, "s");

    const double tasks_vm = static_cast<double>(first.tasks_on_vms);
    const double tasks_el = static_cast<double>(first.tasks_on_elastic);
    out.Layer("engine.run_s", run_s, "s", n_plain);
    out.Layer("engine.remainder_s", run_s - replay_s - est_core_s, "s");
    out.Layer("engine.us_per_task", run_s / (tasks_vm + tasks_el) * 1e6, "us");
    out.Layer("engine.tasks_on_vms", tasks_vm, "count");
    out.Layer("engine.tasks_on_elastic", tasks_el, "count");
    out.Layer("engine.vm_task_share", tasks_vm / (tasks_vm + tasks_el),
              "ratio");
    out.Layer("engine.peak_concurrent_tasks",
              gauge(mn::kEnginePeakConcurrentTasks), "count");
    out.Layer("engine.tasks_retried", counter(mn::kEngineTasksRetried),
              "count");
    out.Layer("engine.shed_queries", counter(mn::kEngineShedQueries), "count");
    out.Layer("engine.deferred_queries", counter(mn::kEngineDeferredQueries),
              "count");
    out.Layer("engine.admission_queue_peak",
              gauge(mn::kEngineAdmissionQueuePeak), "count");
    out.Layer("engine.tenant.drr_rounds", counter(mn::kEngineTenantDrrRounds),
              "count");
    out.Layer("engine.retry_budget_exhausted",
              counter(mn::kEngineRetryBudgetExhausted), "count");
    out.Layer("engine.stages_reexecuted", counter(mn::kEngineStagesReexecuted),
              "count");
    out.Layer("engine.tasks_speculated", counter(mn::kEngineTasksSpeculated),
              "count");
    out.Layer("engine.hedged_reads", counter(mn::kEngineHedgedReads), "count");

    auto joined = [&](const char* prefix, const char* suffix) {
      return counter(JoinMetricName(prefix, suffix));
    };
    out.Layer("vm_fleet.vms_started",
              joined(mn::kPrefixVmFleet, mn::kSuffixVmsStarted), "count");
    out.Layer("vm_fleet.launch_failures",
              joined(mn::kPrefixVmFleet, mn::kSuffixLaunchFailures), "count");
    out.Layer("elastic_pool.invocations",
              joined(mn::kPrefixElasticPool, mn::kSuffixInvocations), "count");
    out.Layer("elastic_pool.throttled",
              joined(mn::kPrefixElasticPool, mn::kSuffixThrottled), "count");
    out.Layer("object_store.puts",
              joined(mn::kPrefixObjectStore, mn::kSuffixPuts), "count");
    out.Layer("object_store.gets",
              joined(mn::kPrefixObjectStore, mn::kSuffixGets), "count");
    out.Layer("object_store.retries",
              joined(mn::kPrefixObjectStore, mn::kSuffixRetries), "count");
    out.Layer("shuffle.written_bytes",
              joined(mn::kPrefixShuffle, mn::kSuffixWrittenBytes), "bytes");
    out.Layer("shuffle.fallback_bytes",
              joined(mn::kPrefixShuffle, mn::kSuffixFallbackBytes), "bytes");

    // Per-tenant invoices must sum to the bill exactly.
    out.Layer("ledger.closure_error_usd", closure_usd, "USD");
    if (closure_usd != 0.0) {
      out.Fail(config.workload + ": tenant invoices miss billing by $" +
               Hex(closure_usd));
    }
    WriteTraceFile(config, rec, &out);
  }
  return out;
}

}  // namespace

RunResult RunEnginePaper(const RunConfig& config) {
  EngineWorkload spec;
  spec.workload = PaperWorkload(config.seed);
  spec.engine.use_dynamic = true;
  spec.engine.enable_shuffle = true;
  spec.engine.record_series = true;
  spec.engine.seed = Rng::StreamSeed(config.seed, kEngineStream);
  return RunEngineWorkload(config, spec);
}

RunResult RunEngineChaos(const RunConfig& config) {
  const std::string path =
      std::string(PERFBENCH_REPO_ROOT) + "/bench/scenarios/full_chaos.scenario";
  StatusOr<ChaosScenario> loaded = LoadScenarioFile(path);
  if (!loaded.ok()) {
    RunResult out;
    out.Fail("cannot load " + path + ": " + loaded.status().message());
    return out;
  }
  ChaosScenario scenario = std::move(loaded).value();
  scenario.workload.num_queries = 3000;
  scenario.workload.duration_ms = 6 * kMillisPerHour;
  scenario.workload.num_tenants = 100;
  scenario.workload.tenant_skew = 1.0;
  // The seed draws the arrivals and their tenants. The fault timeline
  // keeps the scenario file's own seed: the scenario is the fixed stress,
  // and its few dozen fault windows would otherwise swing the work done
  // per run by tens of percent from seed to seed.
  scenario.workload.seed = Rng::StreamSeed(config.seed, kWorkloadStream);
  EngineWorkload spec;
  spec.workload = scenario.workload;
  spec.engine = scenario.ToEngineOptions();
  spec.engine.record_series = true;
  return RunEngineWorkload(config, spec);
}

}  // namespace perfbench
