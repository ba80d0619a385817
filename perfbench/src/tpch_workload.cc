// The executor workload tpch_sf01: all 25 plans of BuildTpchPlan on
// GenerateTpch(0.1) through PlanExecutor::Execute with default
// ExecutorOptions, once at 1 thread and once at nproc threads per pass. No
// simulator layer runs here. The dataset is the generator's fixed default so
// every result can be checked against the committed fingerprint file; the
// seed picks the order the plans run in.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "exec/datagen.h"
#include "exec/exec_metrics.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "exec/tpch_queries.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace cackle;
using namespace cackle::exec;
namespace mn = cackle::metric_names;

constexpr double kScaleFactor = 0.1;
constexpr int kSetupReps = 3;
// Plan latency percentiles need >= 10 samples beyond the p90: 100 samples
// per thread count, i.e. 4 passes over the 25 plans.
constexpr int kMinPasses = 4;

/// Order-sensitive FNV-1a over the schema and every value (doubles by bit
/// pattern), so two results match only if they are bit-identical.
class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

uint64_t Fingerprint(const Table& t) {
  Fnv h;
  h.Pod(t.num_rows());
  for (int c = 0; c < t.num_columns(); ++c) {
    const ColumnDef& def = t.column_def(c);
    h.Bytes(def.name.data(), def.name.size());
    h.Pod(static_cast<int>(def.type));
    const Column& col = t.column(c);
    switch (def.type) {
      case DataType::kInt64:
        for (const int64_t v : col.ints()) h.Pod(v);
        break;
      case DataType::kFloat64:
        for (const double v : col.doubles()) {
          uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof(bits));
          h.Pod(bits);
        }
        break;
      case DataType::kString:
        for (const std::string& s : col.strings()) {
          h.Pod(s.size());
          h.Bytes(s.data(), s.size());
        }
        break;
    }
  }
  return h.value();
}

struct Expected {
  int64_t rows = 0;
  uint64_t fingerprint = 0;
};

/// Reads "q<id> <rows> <hex fingerprint>" lines; '#' starts a comment.
std::map<int, Expected> ReadFingerprints(const std::string& path,
                                         std::string* error) {
  std::map<int, Expected> out;
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open fingerprint file " + path;
    return out;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    int q = 0;
    long long rows = 0;
    unsigned long long fp = 0;
    if (std::sscanf(line.c_str(), "q%d %lld %llx", &q, &rows, &fp) != 3) {
      *error = "malformed fingerprint line: " + line;
      return out;
    }
    out[q] = {rows, fp};
  }
  return out;
}

enum StageKind { kScan, kJoin, kAggregate, kOther, kNumKinds };

StageKind KindOf(const std::string& label) {
  if (label.rfind("scan", 0) == 0) return kScan;
  if (label.find("join") != std::string::npos) return kJoin;
  if (label.find("agg") != std::string::npos) return kAggregate;
  return kOther;
}

const char* const kKindRow[kNumKinds] = {"exec.scan", "exec.join",
                                         "exec.aggregate", "exec.other"};

/// One executor the suite runs on, and what its passes measured.
struct Arm {
  Arm(const char* t, int n) : tag(t), threads(n) {
    row = std::string("exec.") + t;
  }
  const char* tag;
  int threads;
  std::string row;  // ledger row of its Execute calls
  std::unique_ptr<PlanExecutor> executor;
  std::vector<double> plan_ms;      // plain passes
  std::vector<PlanRunStats> stats;  // last observed pass, by plan
  double kind_s[kNumKinds] = {0, 0, 0, 0};  // observed passes, summed
  int64_t pool_tasks = 0;                   // observed passes, summed
};

int64_t PoolTasks(const PlanExecutor& executor) {
  MetricsRegistry m;
  executor.ExportMetrics(&m, mn::kPrefixExecPool);
  return m.CounterValue(
      JoinMetricName(mn::kPrefixExecPool, mn::kSuffixTasksSubmitted));
}

struct TpchSetup {
  std::unique_ptr<Catalog> catalog;
  std::vector<std::pair<int, StagePlan>> plans;
};

/// Median-of-`reps` host seconds of `fn`.
template <typename Fn>
double TimeOp(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowSeconds();
    fn();
    t.push_back(NowSeconds() - t0);
  }
  return Median(t);
}

/// Direct public-operator calls on the SF 0.1 tables.
void OperatorKit(const Catalog& cat, SpanRecorder* rec, RunResult* out) {
  constexpr int kReps = 3;
  int64_t sink = 0;
  auto op = [&](const char* metric, const char* name, auto&& fn) {
    ScopedSpan span(rec, std::string("probe ") + name, "probe");
    out->Layer(metric, TimeOp(kReps, [&] { sink += fn(); }) * 1e3, "ms",
               kReps);
  };
  const ExprPtr q6 =
      AllOf({Ge(Col("l_shipdate"), Lit(DateFromCivil(1994, 1, 1))),
             Lt(Col("l_shipdate"), Lit(DateFromCivil(1995, 1, 1))),
             Ge(Col("l_discount"), Lit(0.05)), Le(Col("l_discount"), Lit(0.07)),
             Lt(Col("l_quantity"), Lit(24.0))});
  op("exec.op.filter_ms", "Filter lineitem (Q6 predicate)",
     [&] { return Filter(cat.lineitem, q6).num_rows(); });
  op("exec.op.join_large_ms", "HashJoin lineitem x orders", [&] {
    return HashJoin(cat.lineitem, {"l_orderkey"}, cat.orders, {"o_orderkey"})
        .num_rows();
  });
  op("exec.op.join_small_ms", "HashJoin supplier x nation", [&] {
    return HashJoin(cat.supplier, {"s_nationkey"}, cat.nation, {"n_nationkey"})
        .num_rows();
  });
  op("exec.op.aggregate_ms", "HashAggregate lineitem (Q1 group-by)", [&] {
    return HashAggregate(cat.lineitem, {"l_returnflag", "l_linestatus"},
                         {{AggOp::kSum, Col("l_quantity"), "sum_qty"},
                          {AggOp::kSum, Col("l_extendedprice"), "sum_price"},
                          {AggOp::kAvg, Col("l_discount"), "avg_disc"},
                          {AggOp::kCount, Col("l_quantity"), "count_order"}})
        .num_rows();
  });
  op("exec.op.partition_ms", "PartitionByHash lineitem 16 ways", [&] {
    return static_cast<int64_t>(
        PartitionByHash(cat.lineitem, {"l_orderkey"}, 16).size());
  });
  op("exec.op.sort_ms", "SortBy orders o_totalprice", [&] {
    return SortBy(cat.orders, {{"o_totalprice", false}}).num_rows();
  });
  if (sink <= 0) out->Fail("operator kit produced empty results");
}

}  // namespace

int WriteTpchFingerprints(const std::string& path) {
  const Catalog catalog = GenerateTpch(kScaleFactor);
  PlanExecutor executor(ExecutorOptions{});
  std::ofstream os(path);
  os << "# TPC-H SF " << kScaleFactor
     << " (GenerateTpch default seed) result fingerprints: q<id> <rows> "
        "<FNV-1a over schema and values, doubles by bit pattern>.\n"
        "# Regenerate: cackle_perfbench --write-fingerprints <path>\n";
  for (const int q : AllTpchQueryIds()) {
    const Table result = executor.Execute(BuildTpchPlan(q, catalog));
    char line[96];
    std::snprintf(line, sizeof(line), "q%d %lld %016llx\n", q,
                  static_cast<long long>(result.num_rows()),
                  static_cast<unsigned long long>(Fingerprint(result)));
    os << line;
  }
  return os ? 0 : 1;
}

RunResult RunTpch(const RunConfig& config) {
  RunResult out;
  std::string error;
  const std::map<int, Expected> expected =
      ReadFingerprints(config.fingerprints, &error);
  if (!error.empty()) {
    out.Fail(error);
    return out;
  }
  // Default ExecutorOptions apart from the thread count.
  Arm arms[2] = {{"1t", 1}, {"nt", config.threads}};
  for (Arm& arm : arms) {
    ExecutorOptions opts;
    opts.num_threads = arm.threads;
    arm.executor = std::make_unique<PlanExecutor>(opts);
  }

  // Set-up: datagen and plan construction (median of kSetupReps; the last
  // build is kept), then one warm-up pass of the suite at nproc threads,
  // which touches every table and starts the pool.
  TpchSetup setup;
  std::vector<double> build, datagen;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup = TpchSetup{};  // free the previous catalog first
    const double t0 = NowSeconds();
    setup.catalog = std::make_unique<Catalog>(GenerateTpch(kScaleFactor));
    const double t1 = NowSeconds();
    for (const int q : AllTpchQueryIds()) {
      setup.plans.emplace_back(q, BuildTpchPlan(q, *setup.catalog));
    }
    build.push_back(NowSeconds() - t0);
    datagen.push_back(t1 - t0);
  }
  const double warm0 = NowSeconds();
  for (const auto& [q, plan] : setup.plans) {
    (void)arms[1].executor->Execute(plan);
  }
  const double warmup_s = NowSeconds() - warm0;
  out.E2e("setup_s", Median(build) + warmup_s, "s", kSetupReps);
  out.Layer("exec.datagen_s", Median(datagen), "s", kSetupReps);
  out.Layer("exec.warmup_s", warmup_s, "s");

  // The seed fixes the order the plans run in (the same for every pass).
  std::vector<size_t> order(setup.plans.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(Rng::StreamSeed(config.seed, 0x7063ULL));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  SpanRecorder rec(config.trace);
  int observed_passes = 0;
  int64_t mismatches = 0;
  MetricsRegistry exec_counters;
  const PassTimes times = TimePasses(config, kMinPasses, [&](int,
                                                             bool observed) {
    if (observed) {
      ++observed_passes;
      ExecMetrics().Reset();
    }
    ScopedSpan span(&rec, observed ? "pass_observed" : "pass", "bench");
    for (Arm& arm : arms) {
      const int64_t pool_before = PoolTasks(*arm.executor);
      if (observed) arm.stats.assign(setup.plans.size(), PlanRunStats{});
      for (const size_t i : order) {
        const auto& [q, plan] = setup.plans[i];
        char name[32];
        std::snprintf(name, sizeof(name), "Execute q%02d", q);
        const double t0 = NowSeconds();
        Table result;
        {
          ScopedSpan exec_span(&rec, name, arm.row);
          result =
              arm.executor->Execute(plan, observed ? &arm.stats[i] : nullptr);
        }
        if (!observed) arm.plan_ms.push_back((NowSeconds() - t0) * 1e3);
        auto it = expected.find(q);
        if (it == expected.end() || it->second.rows != result.num_rows() ||
            it->second.fingerprint != Fingerprint(result)) {
          ++mismatches;
          char what[96];
          std::snprintf(what, sizeof(what),
                        "q%d result does not match the committed "
                        "fingerprint at %d thread(s)",
                        q, arm.threads);
          out.Fail(what);
        }
      }
      if (observed) {
        arm.pool_tasks += PoolTasks(*arm.executor) - pool_before;
        for (const PlanRunStats& s : arm.stats) {
          for (const StageStats& st : s.stages) {
            int64_t micros = 0;
            for (const int64_t m : st.task_micros) micros += m;
            arm.kind_s[KindOf(st.label)] += static_cast<double>(micros) * 1e-6;
          }
        }
      }
    }
    if (observed) PublishExecMetrics(exec_counters);
  });

  out.attempted = static_cast<int64_t>(times.total()) * 2 *
                  static_cast<int64_t>(setup.plans.size());
  AddPassMetrics(times, config, &out);
  out.E2e("served_frac",
          1.0 - static_cast<double>(mismatches) /
                    static_cast<double>(out.attempted),
          "ratio");
  out.E2e("peak_rss_mb", PeakRssMb(), "MB");
  for (const Arm& arm : arms) {
    const std::string tag = arm.tag;
    const int64_t n = static_cast<int64_t>(arm.plan_ms.size());
    const double p50 = PercentileOf(arm.plan_ms, 50);
    const double p90 = PercentileOf(arm.plan_ms, 90);
    out.Layer("exec.plan_p50_ms_" + tag, p50, "ms", n);
    out.Layer("exec.plan_p90_ms_" + tag, p90, "ms", n);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "plan latency at %d thread(s): p50 %.3f ms, p90 %.3f ms "
                  "over %lld plan runs (25 plans x %zu passes)",
                  arm.threads, p50, p90, static_cast<long long>(n),
                  times.wall.size());
    out.notes.push_back(line);
  }

  if (config.trace) {
    const double n = static_cast<double>(observed_passes);
    const Arm& serial = arms[0];
    const Arm& parallel = arms[1];
    out.Layer("exec.scan_task_ms", serial.kind_s[kScan] / n * 1e3, "ms");
    out.Layer("exec.join_task_ms", serial.kind_s[kJoin] / n * 1e3, "ms");
    out.Layer("exec.aggregate_task_ms", serial.kind_s[kAggregate] / n * 1e3,
              "ms");
    out.Layer("exec.other_task_ms", serial.kind_s[kOther] / n * 1e3, "ms");
    int64_t shuffle_bytes = 0;
    int64_t peak_resident = 0;
    for (const PlanRunStats& s : serial.stats) {
      for (const StageStats& st : s.stages) shuffle_bytes += st.output_bytes;
      peak_resident = std::max(peak_resident, s.peak_resident_bytes);
    }
    out.Layer("exec.shuffle_bytes", static_cast<double>(shuffle_bytes),
              "bytes");
    out.Layer("exec.peak_resident_mb",
              static_cast<double>(peak_resident) / (1024.0 * 1024.0), "MB");

    LayerLedger ledger = LayerLedger::FromSpans(
        rec.spans(), "pass", static_cast<int>(times.wall.size()));
    double parallel_task_s = 0.0;
    for (int k = 0; k < kNumKinds; ++k) parallel_task_s += parallel.kind_s[k];
    out.Layer("exec.pool_idle_frac_nt",
              1.0 - parallel_task_s / n /
                        (parallel.threads * ledger.rows().at(parallel.row)),
              "ratio");
    // At 1 thread task time is a part of the Execute wall, so the stage
    // kinds split that row; what stays on it is the executor's own
    // scheduling and exchange work. At nproc threads task time overlaps and
    // the row stays whole.
    for (int k = 0; k < kNumKinds; ++k) {
      ledger.Move(serial.row, kKindRow[k], serial.kind_s[k] / n);
    }
    out.AddLedger(ledger);

    auto per_pass = [&](const char* name) {
      return static_cast<double>(exec_counters.CounterValue(name));
    };
    out.Layer("exec.flat_table.resizes", per_pass(mn::kExecFlatTableResizes),
              "count");
    out.Layer("exec.keys.fallback", per_pass(mn::kExecKeysFallback), "count");
    out.Layer("exec.gather.rows", per_pass(mn::kExecGatherRows), "count");
    out.Layer("exec.pool.tasks_submitted",
              static_cast<double>(parallel.pool_tasks) / n, "count");

    OperatorKit(*setup.catalog, &rec, &out);
    WriteTraceFile(config, rec, &out);
  }
  return out;
}

}  // namespace perfbench
