#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/metrics.h"
#include "exec/datagen.h"
#include "exec/plan.h"
#include "exec/profiler.h"
#include "exec/tpch_queries.h"
#include "workload/profile_library.h"

namespace cackle::exec {
namespace {

const Catalog& TestCatalog() {
  static const Catalog* cat = new Catalog(GenerateTpch(0.01));
  return *cat;
}

/// Compares tables cell-by-cell with tolerance for doubles (parallel plans
/// sum floating point in different orders).
void ExpectTablesNear(const Table& a, const Table& b, double rel_tol) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column_def(c).type, b.column_def(c).type)
        << a.column_def(c).name;
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      switch (a.column_def(c).type) {
        case DataType::kInt64:
          ASSERT_EQ(a.column(c).ints()[static_cast<size_t>(r)],
                    b.column(c).ints()[static_cast<size_t>(r)])
              << "col " << a.column_def(c).name << " row " << r;
          break;
        case DataType::kFloat64: {
          const double x = a.column(c).doubles()[static_cast<size_t>(r)];
          const double y = b.column(c).doubles()[static_cast<size_t>(r)];
          ASSERT_NEAR(x, y, rel_tol * (1.0 + std::abs(x)))
              << "col " << a.column_def(c).name << " row " << r;
          break;
        }
        case DataType::kString:
          ASSERT_EQ(a.column(c).strings()[static_cast<size_t>(r)],
                    b.column(c).strings()[static_cast<size_t>(r)])
              << "col " << a.column_def(c).name << " row " << r;
          break;
      }
    }
  }
}

/// Partition invariance: every query must produce identical results with 1
/// task per stage (single node) and several tasks per stage (distributed).
class TpchPartitionInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchPartitionInvarianceTest, SameResultForAnyTaskCount) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  PlanConfig serial;
  serial.tasks = 1;
  PlanConfig parallel;
  parallel.tasks = 5;
  const Table a = executor.Execute(BuildTpchPlan(GetParam(), cat, serial));
  const Table b = executor.Execute(BuildTpchPlan(GetParam(), cat, parallel));
  ExpectTablesNear(a, b, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchPartitionInvarianceTest,
                         ::testing::ValuesIn(AllTpchQueryIds()));

/// Every query runs and produces a sane, non-degenerate result.
class TpchSmokeTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchSmokeTest, RunsAndProducesResult) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  PlanRunStats stats;
  const Table result =
      executor.Execute(BuildTpchPlan(GetParam(), cat, PlanConfig{3}), &stats);
  EXPECT_GT(result.num_columns(), 0);
  EXPECT_GT(stats.total_micros, 0);
  // Every stage ran its declared task count.
  for (const StageStats& s : stats.stages) {
    EXPECT_EQ(static_cast<int>(s.task_micros.size()), s.num_tasks);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchSmokeTest,
                         ::testing::ValuesIn(AllTpchQueryIds()));

/// Multithreaded execution must produce the same result as serial.
class TpchParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchParallelTest, ParallelEqualsSerial) {
  const Catalog& cat = TestCatalog();
  PlanExecutor serial(1);
  PlanExecutor parallel(4);
  const Table a = serial.Execute(BuildTpchPlan(GetParam(), cat, PlanConfig{6}));
  const Table b =
      parallel.Execute(BuildTpchPlan(GetParam(), cat, PlanConfig{6}));
  ExpectTablesNear(a, b, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SampleQueries, TpchParallelTest,
                         ::testing::Values(1, 3, 5, 9, 13, 18, 21, 24));

// --- Reference results: independent row-at-a-time computations ---

TEST(TpchReferenceTest, Q1MatchesDirectComputation) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  const Table result = executor.Execute(BuildTpchPlan(1, cat, PlanConfig{4}));

  struct Acc {
    double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
    int64_t count = 0;
  };
  std::map<std::pair<std::string, std::string>, Acc> groups;
  const int64_t cutoff = DateFromCivil(1998, 12, 1) - 90;
  const Table& l = cat.lineitem;
  for (int64_t r = 0; r < l.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (l.column("l_shipdate").ints()[i] > cutoff) continue;
    Acc& acc = groups[{l.column("l_returnflag").strings()[i],
                       l.column("l_linestatus").strings()[i]}];
    const double ep = l.column("l_extendedprice").doubles()[i];
    const double d = l.column("l_discount").doubles()[i];
    const double tax = l.column("l_tax").doubles()[i];
    acc.qty += l.column("l_quantity").doubles()[i];
    acc.base += ep;
    acc.disc_price += ep * (1 - d);
    acc.charge += ep * (1 - d) * (1 + tax);
    acc.disc += d;
    ++acc.count;
  }
  ASSERT_EQ(result.num_rows(), static_cast<int64_t>(groups.size()));
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    const auto key = std::make_pair(
        result.column("l_returnflag").strings()[i],
        result.column("l_linestatus").strings()[i]);
    const Acc& acc = groups.at(key);
    EXPECT_NEAR(result.column("sum_qty").doubles()[i], acc.qty,
                1e-6 * acc.qty + 1e-6);
    EXPECT_NEAR(result.column("sum_disc_price").doubles()[i], acc.disc_price,
                1e-6 * acc.disc_price);
    EXPECT_NEAR(result.column("sum_charge").doubles()[i], acc.charge,
                1e-6 * acc.charge);
    EXPECT_NEAR(result.column("avg_disc").doubles()[i],
                acc.disc / static_cast<double>(acc.count), 1e-9);
    EXPECT_EQ(result.column("count_order").ints()[i], acc.count);
  }
}

TEST(TpchReferenceTest, Q6MatchesDirectComputation) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  const Table result = executor.Execute(BuildTpchPlan(6, cat, PlanConfig{4}));
  double expected = 0;
  const Table& l = cat.lineitem;
  const int64_t lo = DateFromCivil(1994, 1, 1);
  const int64_t hi = DateFromCivil(1995, 1, 1);
  for (int64_t r = 0; r < l.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    const int64_t ship = l.column("l_shipdate").ints()[i];
    const double disc = l.column("l_discount").doubles()[i];
    const double qty = l.column("l_quantity").doubles()[i];
    if (ship >= lo && ship < hi && disc >= 0.05 - 1e-12 &&
        disc <= 0.07 + 1e-12 && qty < 24) {
      expected += l.column("l_extendedprice").doubles()[i] * disc;
    }
  }
  ASSERT_EQ(result.num_rows(), 1);
  EXPECT_NEAR(result.column("revenue").doubles()[0], expected,
              1e-6 * expected);
  EXPECT_GT(expected, 0.0);
}

TEST(TpchReferenceTest, Q4MatchesDirectComputation) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  const Table result = executor.Execute(BuildTpchPlan(4, cat, PlanConfig{4}));
  // Reference: orders in the window with >=1 late-commit lineitem.
  const int64_t lo = DateFromCivil(1993, 7, 1);
  const int64_t hi = AddMonths(lo, 3);
  std::set<int64_t> late_orders;
  const Table& l = cat.lineitem;
  for (int64_t r = 0; r < l.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (l.column("l_commitdate").ints()[i] <
        l.column("l_receiptdate").ints()[i]) {
      late_orders.insert(l.column("l_orderkey").ints()[i]);
    }
  }
  std::map<std::string, int64_t> expected;
  const Table& o = cat.orders;
  for (int64_t r = 0; r < o.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    const int64_t date = o.column("o_orderdate").ints()[i];
    if (date >= lo && date < hi &&
        late_orders.count(o.column("o_orderkey").ints()[i])) {
      ++expected[o.column("o_orderpriority").strings()[i]];
    }
  }
  ASSERT_EQ(result.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    EXPECT_EQ(result.column("order_count").ints()[i],
              expected.at(result.column("o_orderpriority").strings()[i]));
  }
}

TEST(TpchReferenceTest, Q3MatchesDirectComputation) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  const Table result = executor.Execute(BuildTpchPlan(3, cat, PlanConfig{4}));

  // Reference: nested maps over the three tables.
  const int64_t date = DateFromCivil(1995, 3, 15);
  std::set<int64_t> building_custs;
  for (int64_t r = 0; r < cat.customer.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (cat.customer.column("c_mktsegment").strings()[i] == "BUILDING") {
      building_custs.insert(cat.customer.column("c_custkey").ints()[i]);
    }
  }
  struct OrderInfo {
    int64_t date;
    int64_t prio;
  };
  std::map<int64_t, OrderInfo> eligible_orders;
  for (int64_t r = 0; r < cat.orders.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (cat.orders.column("o_orderdate").ints()[i] < date &&
        building_custs.count(cat.orders.column("o_custkey").ints()[i])) {
      eligible_orders[cat.orders.column("o_orderkey").ints()[i]] =
          OrderInfo{cat.orders.column("o_orderdate").ints()[i],
                    cat.orders.column("o_shippriority").ints()[i]};
    }
  }
  std::map<int64_t, double> revenue;
  for (int64_t r = 0; r < cat.lineitem.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (cat.lineitem.column("l_shipdate").ints()[i] <= date) continue;
    const int64_t ok = cat.lineitem.column("l_orderkey").ints()[i];
    if (!eligible_orders.count(ok)) continue;
    revenue[ok] += cat.lineitem.column("l_extendedprice").doubles()[i] *
                   (1.0 - cat.lineitem.column("l_discount").doubles()[i]);
  }
  // Top 10 by revenue desc, date asc.
  std::vector<std::pair<double, int64_t>> ranked;
  for (const auto& [ok, rev] : revenue) ranked.emplace_back(rev, ok);
  std::sort(ranked.begin(), ranked.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return eligible_orders.at(a.second).date <
           eligible_orders.at(b.second).date;
  });
  const int64_t expected_rows =
      std::min<int64_t>(10, static_cast<int64_t>(ranked.size()));
  ASSERT_EQ(result.num_rows(), expected_rows);
  for (int64_t r = 0; r < expected_rows; ++r) {
    const size_t i = static_cast<size_t>(r);
    EXPECT_EQ(result.column("l_orderkey").ints()[i], ranked[i].second)
        << "rank " << r;
    EXPECT_NEAR(result.column("revenue").doubles()[i], ranked[i].first,
                1e-6 * ranked[i].first);
  }
}

TEST(TpchReferenceTest, Q12MatchesDirectComputation) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  const Table result = executor.Execute(BuildTpchPlan(12, cat, PlanConfig{4}));
  std::map<int64_t, std::string> order_priority;
  for (int64_t r = 0; r < cat.orders.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    order_priority[cat.orders.column("o_orderkey").ints()[i]] =
        cat.orders.column("o_orderpriority").strings()[i];
  }
  const int64_t lo = DateFromCivil(1994, 1, 1);
  const int64_t hi = DateFromCivil(1995, 1, 1);
  std::map<std::string, std::pair<int64_t, int64_t>> expected;  // high, low
  for (int64_t r = 0; r < cat.lineitem.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    const std::string& mode = cat.lineitem.column("l_shipmode").strings()[i];
    if (mode != "MAIL" && mode != "SHIP") continue;
    const int64_t commit = cat.lineitem.column("l_commitdate").ints()[i];
    const int64_t receipt = cat.lineitem.column("l_receiptdate").ints()[i];
    const int64_t ship = cat.lineitem.column("l_shipdate").ints()[i];
    if (!(commit < receipt && ship < commit && receipt >= lo && receipt < hi)) {
      continue;
    }
    const std::string& prio =
        order_priority.at(cat.lineitem.column("l_orderkey").ints()[i]);
    const bool high = prio == "1-URGENT" || prio == "2-HIGH";
    auto& counts = expected[mode];
    if (high) {
      ++counts.first;
    } else {
      ++counts.second;
    }
  }
  ASSERT_EQ(result.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    const auto& counts =
        expected.at(result.column("l_shipmode").strings()[i]);
    EXPECT_EQ(result.column("high_line_count").ints()[i], counts.first);
    EXPECT_EQ(result.column("low_line_count").ints()[i], counts.second);
  }
}

TEST(TpchReferenceTest, Q14MatchesDirectComputation) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  const Table result = executor.Execute(BuildTpchPlan(14, cat, PlanConfig{4}));
  std::map<int64_t, bool> part_is_promo;
  for (int64_t r = 0; r < cat.part.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    part_is_promo[cat.part.column("p_partkey").ints()[i]] =
        cat.part.column("p_type").strings()[i].rfind("PROMO", 0) == 0;
  }
  const int64_t lo = DateFromCivil(1995, 9, 1);
  const int64_t hi = AddMonths(lo, 1);
  double promo = 0;
  double total = 0;
  for (int64_t r = 0; r < cat.lineitem.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    const int64_t ship = cat.lineitem.column("l_shipdate").ints()[i];
    if (ship < lo || ship >= hi) continue;
    const double rev =
        cat.lineitem.column("l_extendedprice").doubles()[i] *
        (1.0 - cat.lineitem.column("l_discount").doubles()[i]);
    total += rev;
    if (part_is_promo.at(cat.lineitem.column("l_partkey").ints()[i])) {
      promo += rev;
    }
  }
  ASSERT_EQ(result.num_rows(), 1);
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(result.column("promo_revenue").doubles()[0],
              100.0 * promo / total, 1e-6);
}

TEST(TpchSemanticTest, Q1HasAtMostSixGroups) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  const Table r = executor.Execute(BuildTpchPlan(1, cat, PlanConfig{2}));
  EXPECT_GE(r.num_rows(), 3);
  EXPECT_LE(r.num_rows(), 6);  // 3 flags x 2 statuses, minus impossible ones
}

TEST(TpchSemanticTest, SelectiveQueriesReturnBoundedResults) {
  const Catalog& cat = TestCatalog();
  PlanExecutor executor;
  EXPECT_LE(executor.Execute(BuildTpchPlan(3, cat, PlanConfig{2})).num_rows(),
            10);
  EXPECT_LE(executor.Execute(BuildTpchPlan(10, cat, PlanConfig{2})).num_rows(),
            20);
  EXPECT_LE(executor.Execute(BuildTpchPlan(18, cat, PlanConfig{2})).num_rows(),
            100);
  EXPECT_EQ(executor.Execute(BuildTpchPlan(14, cat, PlanConfig{2})).num_rows(),
            1);
  // Q5 groups by nation within ASIA: at most 5 nations.
  EXPECT_LE(executor.Execute(BuildTpchPlan(5, cat, PlanConfig{2})).num_rows(),
            5);
  // Q22 groups by country code: at most 7.
  EXPECT_LE(executor.Execute(BuildTpchPlan(22, cat, PlanConfig{2})).num_rows(),
            7);
}

TEST(TpchRobustnessTest, InvarianceHoldsOnADifferentDataset) {
  // A second catalog (different seed and size) guards against results that
  // only hold on the default test data.
  const Catalog other = GenerateTpch(0.004, /*seed=*/777);
  PlanExecutor executor;
  for (int q : {2, 7, 11, 15, 17, 20, 21, 22, 23, 25}) {
    const Table a = executor.Execute(BuildTpchPlan(q, other, PlanConfig{1}));
    const Table b = executor.Execute(BuildTpchPlan(q, other, PlanConfig{4}));
    ExpectTablesNear(a, b, 1e-9);
  }
}

TEST(TpchRobustnessTest, ProfilerCoversEveryQuery) {
  // ProfileAllQueries must produce a valid profile for all 25 queries and
  // every target scale factor — this is the path that regenerates the
  // library shipped with the repo.
  const Catalog tiny = GenerateTpch(0.003, /*seed=*/99);
  ProfilerOptions opts;
  opts.measured_scale_factor = 0.003;
  opts.plan_config.tasks = 2;
  const auto profiles = ProfileAllQueries(tiny, opts);
  EXPECT_EQ(profiles.size(), 25u * 3u);
  cackle::ProfileLibrary lib;
  for (auto p : profiles) lib.Add(std::move(p));  // Add() validates
  EXPECT_NE(lib.FindByName("tpch_q21_sf100"), nullptr);
  EXPECT_NE(lib.FindByName("dslike_q81_multifact_sf50"), nullptr);
}

// --- Profiler ---

TEST(ProfilerTest, EmitsValidScaledProfiles) {
  const Catalog& cat = TestCatalog();
  ProfilerOptions opts;
  opts.plan_config.tasks = 3;
  const auto profiles = ProfileQuery(3, cat, opts);
  ASSERT_EQ(profiles.size(), 3u);  // SF 10, 50, 100
  for (const QueryProfile& p : profiles) {
    EXPECT_TRUE(p.Validate().ok()) << p.name;
    EXPECT_EQ(p.query_id, 3);
    EXPECT_GT(p.TotalShuffleBytes(), 0);
    EXPECT_GT(p.TotalObjectStoreGets(), 0);
    // Final stage never shuffles.
    EXPECT_EQ(p.stages.back().shuffle_bytes_out, 0);
  }
  // Larger scale factors mean more tasks and bytes.
  EXPECT_LE(profiles[0].TotalTasks(), profiles[2].TotalTasks());
  EXPECT_LT(profiles[0].TotalShuffleBytes(), profiles[2].TotalShuffleBytes());
}

TEST(ProfilerTest, PooledProfilingMatchesSerialAndExportsPoolMetrics) {
  const Catalog& cat = TestCatalog();
  ProfilerOptions serial_opts;
  serial_opts.plan_config.tasks = 3;
  serial_opts.target_scale_factors = {100};
  ProfilerOptions pooled_opts = serial_opts;
  pooled_opts.exec_threads = 4;
  MetricsRegistry metrics;
  pooled_opts.metrics = &metrics;

  const auto serial = ProfileQuery(8, cat, serial_opts);
  const auto pooled = ProfileQuery(8, cat, pooled_opts);
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(pooled.size(), 1u);
  // The DAG shape and data volumes are duration-independent, so they must
  // be identical however the measurement run was threaded.
  ASSERT_EQ(pooled[0].stages.size(), serial[0].stages.size());
  for (size_t i = 0; i < serial[0].stages.size(); ++i) {
    EXPECT_EQ(pooled[0].stages[i].num_tasks, serial[0].stages[i].num_tasks);
    EXPECT_EQ(pooled[0].stages[i].dependencies,
              serial[0].stages[i].dependencies);
    EXPECT_EQ(pooled[0].stages[i].shuffle_bytes_out,
              serial[0].stages[i].shuffle_bytes_out);
  }
  // The measurement run executed on the pool and exported its counters.
  EXPECT_GT(metrics.CounterValue("exec.pool.tasks_run"), 0);
  EXPECT_GT(metrics.CounterValue("exec.pool.plans_run"), 0);
}

TEST(PlanExecutorTest, ReleasingStageOutputsLowersPeakResidency) {
  // Q8 is the deepest TPC-H plan in the suite. The executor frees each
  // stage's shuffle partitions after the last consumer reads them, so peak
  // resident bytes must stay below the sum of every stage's output bytes —
  // what keeping every stage output alive to the end would hold.
  PlanExecutor executor;
  PlanRunStats stats;
  executor.Execute(BuildTpchPlan(8, TestCatalog(), PlanConfig{4}), &stats);
  int64_t keep_everything_bytes = 0;
  for (const StageStats& stage : stats.stages) {
    keep_everything_bytes += stage.output_bytes;
  }
  EXPECT_GT(stats.peak_resident_bytes, 0);
  EXPECT_LT(stats.peak_resident_bytes, keep_everything_bytes);
}

TEST(ProfilerTest, RoundTripsThroughSerialization) {
  const Catalog& cat = TestCatalog();
  ProfilerOptions opts;
  opts.plan_config.tasks = 2;
  opts.target_scale_factors = {100};
  const auto profiles = ProfileQuery(6, cat, opts);
  const std::string text = SerializeProfiles(profiles);
  const auto parsed = ParseProfiles(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].name, profiles[0].name);
  EXPECT_EQ((*parsed)[0].TotalTasks(), profiles[0].TotalTasks());
}

}  // namespace
}  // namespace cackle::exec
