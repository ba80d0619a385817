#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/rng.h"
#include "exec/datagen.h"
#include "exec/expr.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "exec/query_builder.h"
#include "exec/table.h"
#include "exec/types.h"

namespace cackle::exec {
namespace {

// ---------------------------------------------------------------------------
// Dates
// ---------------------------------------------------------------------------

TEST(DateTest, CivilRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const int64_t y = rng.NextInt(1900, 2100);
    const unsigned m = static_cast<unsigned>(rng.NextInt(1, 12));
    const unsigned d = static_cast<unsigned>(rng.NextInt(1, 28));
    const int64_t date = DateFromCivil(y, m, d);
    const CivilDate c = CivilFromDate(date);
    ASSERT_EQ(c.year, y);
    ASSERT_EQ(c.month, m);
    ASSERT_EQ(c.day, d);
  }
}

TEST(DateTest, KnownEpochValues) {
  EXPECT_EQ(DateFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DateFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DateFromCivil(1969, 12, 31), -1);
  // 1992-01-01 is 8035 days after the epoch (22 years incl. 6 leap days).
  EXPECT_EQ(DateFromCivil(1992, 1, 1), 8035);
}

TEST(DateTest, AddMonthsClampsDay) {
  const int64_t jan31 = DateFromCivil(1993, 1, 31);
  const CivilDate feb = CivilFromDate(AddMonths(jan31, 1));
  EXPECT_EQ(feb.month, 2u);
  EXPECT_EQ(feb.day, 28u);
  const CivilDate leap = CivilFromDate(AddMonths(DateFromCivil(1996, 1, 31), 1));
  EXPECT_EQ(leap.day, 29u);
  EXPECT_EQ(AddYears(DateFromCivil(1994, 1, 1), 1), DateFromCivil(1995, 1, 1));
}

TEST(DateTest, FormatDate) {
  EXPECT_EQ(FormatDate(DateFromCivil(1998, 9, 2)), "1998-09-02");
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

Table SmallTable() {
  Table t({{"k", DataType::kInt64},
           {"v", DataType::kFloat64},
           {"s", DataType::kString}});
  for (int64_t i = 0; i < 10; ++i) {
    t.column(0).AppendInt(i % 3);
    t.column(1).AppendDouble(static_cast<double>(i) * 1.5);
    t.column(2).AppendString("row" + std::to_string(i));
  }
  t.FinishBulkAppend();
  return t;
}

TEST(TableTest, SliceAndTake) {
  const Table t = SmallTable();
  const Table s = t.Slice(2, 5);
  EXPECT_EQ(s.num_rows(), 3);
  EXPECT_EQ(s.column("s").strings()[0], "row2");
  const Table taken = t.TakeRows({9, 0});
  EXPECT_EQ(taken.num_rows(), 2);
  EXPECT_EQ(taken.column("k").ints()[0], 0);  // 9 % 3
  EXPECT_EQ(taken.column("s").strings()[1], "row0");
}

TEST(TableTest, ConcatAndBytes) {
  const Table t = SmallTable();
  const Table joined = Concat({t.Slice(0, 4), t.Slice(4, 10)});
  EXPECT_EQ(joined.num_rows(), 10);
  EXPECT_EQ(joined.EstimateBytes(), t.EstimateBytes());
  EXPECT_GT(t.EstimateBytes(), 10 * 16);
}

TEST(TableTest, ColumnLookup) {
  const Table t = SmallTable();
  EXPECT_EQ(t.ColumnIndex("v"), 1);
  EXPECT_EQ(t.FindColumn("nope"), -1);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

TEST(ExprTest, ArithmeticAndPromotion) {
  const Table t = SmallTable();
  const Column c = Add(Mul(Col("k"), Lit(int64_t{10})), Lit(int64_t{1}))
                       ->Eval(t);
  EXPECT_EQ(c.type(), DataType::kInt64);
  EXPECT_EQ(c.ints()[4], 11);  // k=1 -> 11
  const Column d = Div(Col("v"), Lit(2.0))->Eval(t);
  EXPECT_DOUBLE_EQ(d.doubles()[2], 1.5);
  const Column mixed = Add(Col("k"), Lit(0.5))->Eval(t);
  EXPECT_EQ(mixed.type(), DataType::kFloat64);
}

TEST(ExprTest, ComparisonsAndLogic) {
  const Table t = SmallTable();
  const Column c = And(Ge(Col("k"), Lit(int64_t{1})),
                       Lt(Col("v"), Lit(6.0)))
                       ->Eval(t);
  // rows with k>=1 and v<6: rows 1 (k1,v1.5), 2 (k2,v3.0)... v<6 means
  // rows 0..3; k>=1 rows 1,2 within that.
  EXPECT_EQ(c.ints()[1], 1);
  EXPECT_EQ(c.ints()[2], 1);
  EXPECT_EQ(c.ints()[0], 0);
  EXPECT_EQ(c.ints()[4], 0);
  const Column n = Not(Eq(Col("k"), Lit(int64_t{0})))->Eval(t);
  EXPECT_EQ(n.ints()[0], 0);
  EXPECT_EQ(n.ints()[1], 1);
}

TEST(ExprTest, StringPredicates) {
  Table t({{"s", DataType::kString}});
  for (const char* v : {"forest green", "dark forest", "lime", "for"}) {
    t.column(0).AppendString(v);
  }
  t.FinishBulkAppend();
  const Column prefix = StrPrefix(Col("s"), "forest")->Eval(t);
  EXPECT_EQ(prefix.ints(), (std::vector<int64_t>{1, 0, 0, 0}));
  const Column contains = StrContains(Col("s"), "forest")->Eval(t);
  EXPECT_EQ(contains.ints(), (std::vector<int64_t>{1, 1, 0, 0}));
  const Column suffix = StrSuffix(Col("s"), "forest")->Eval(t);
  EXPECT_EQ(suffix.ints(), (std::vector<int64_t>{0, 1, 0, 0}));
  const Column seq = StrContainsSeq(Col("s"), "for", "green")->Eval(t);
  EXPECT_EQ(seq.ints(), (std::vector<int64_t>{1, 0, 0, 0}));
  const Column in = InString(Col("s"), {"lime", "for"})->Eval(t);
  EXPECT_EQ(in.ints(), (std::vector<int64_t>{0, 0, 1, 1}));
}

TEST(ExprTest, IfYearSubstr) {
  Table t({{"d", DataType::kInt64}, {"p", DataType::kString}});
  t.column(0).AppendInt(DateFromCivil(1995, 6, 17));
  t.column(0).AppendInt(DateFromCivil(1996, 1, 1));
  t.column(1).AppendString("13-555");
  t.column(1).AppendString("29-444");
  t.FinishBulkAppend();
  const Column y = Year(Col("d"))->Eval(t);
  EXPECT_EQ(y.ints(), (std::vector<int64_t>{1995, 1996}));
  const Column s = Substr(Col("p"), 2)->Eval(t);
  EXPECT_EQ(s.strings(), (std::vector<std::string>{"13", "29"}));
  const Column iv =
      If(Eq(Col("p"), Lit("13-555")), Lit(int64_t{7}), Lit(int64_t{0}))
          ->Eval(t);
  EXPECT_EQ(iv.ints(), (std::vector<int64_t>{7, 0}));
}

TEST(ExprTest, BetweenInclusive) {
  const Table t = SmallTable();
  const Column c =
      Between(Col("k"), Lit(int64_t{1}), Lit(int64_t{2}))->Eval(t);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const int64_t k = t.column("k").ints()[static_cast<size_t>(r)];
    EXPECT_EQ(c.ints()[static_cast<size_t>(r)], k >= 1 && k <= 2);
  }
}

// ---------------------------------------------------------------------------
// Operators vs brute-force references
// ---------------------------------------------------------------------------

Table RandomTable(Rng* rng, int64_t rows, int64_t key_range,
                  const char* key_name, const char* val_name) {
  Table t({{key_name, DataType::kInt64}, {val_name, DataType::kFloat64}});
  for (int64_t r = 0; r < rows; ++r) {
    t.column(0).AppendInt(rng->NextInt(0, key_range - 1));
    t.column(1).AppendDouble(rng->NextDouble(0, 100));
  }
  t.FinishBulkAppend();
  return t;
}

class JoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPropertyTest, MatchesNestedLoopReference) {
  Rng rng(GetParam());
  const Table left = RandomTable(&rng, rng.NextInt(0, 200), 20, "lk", "lv");
  const Table right = RandomTable(&rng, rng.NextInt(0, 200), 20, "rk", "rv");

  // Reference counts via nested loops.
  int64_t inner = 0;
  int64_t semi = 0;
  int64_t anti = 0;
  for (int64_t l = 0; l < left.num_rows(); ++l) {
    int64_t matches = 0;
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      if (left.column("lk").ints()[static_cast<size_t>(l)] ==
          right.column("rk").ints()[static_cast<size_t>(r)]) {
        ++matches;
      }
    }
    inner += matches;
    semi += matches > 0;
    anti += matches == 0;
  }

  const Table ji = HashJoin(left, {"lk"}, right, {"rk"}, JoinType::kInner);
  const Table js = HashJoin(left, {"lk"}, right, {"rk"}, JoinType::kLeftSemi);
  const Table ja = HashJoin(left, {"lk"}, right, {"rk"}, JoinType::kLeftAnti);
  const Table jo = HashJoin(left, {"lk"}, right, {"rk"},
                            JoinType::kLeftOuter);
  EXPECT_EQ(ji.num_rows(), inner);
  EXPECT_EQ(js.num_rows(), semi);
  EXPECT_EQ(ja.num_rows(), anti);
  EXPECT_EQ(jo.num_rows(), inner + anti);
  // Semi + anti partition the left side.
  EXPECT_EQ(js.num_rows() + ja.num_rows(), left.num_rows());
  // Inner join key equality holds on every output row.
  for (int64_t r = 0; r < ji.num_rows(); ++r) {
    EXPECT_EQ(ji.column("lk").ints()[static_cast<size_t>(r)],
              ji.column("rk").ints()[static_cast<size_t>(r)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class AggregatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregatePropertyTest, MatchesMapReference) {
  Rng rng(GetParam());
  const Table t = RandomTable(&rng, 500, 13, "k", "v");
  const Table agg = HashAggregate(
      t, {"k"},
      {{AggOp::kSum, Col("v"), "sum"},
       {AggOp::kMin, Col("v"), "min"},
       {AggOp::kMax, Col("v"), "max"},
       {AggOp::kAvg, Col("v"), "avg"},
       {AggOp::kCount, nullptr, "cnt"}});

  std::map<int64_t, std::vector<double>> groups;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    groups[t.column("k").ints()[static_cast<size_t>(r)]].push_back(
        t.column("v").doubles()[static_cast<size_t>(r)]);
  }
  ASSERT_EQ(agg.num_rows(), static_cast<int64_t>(groups.size()));
  for (int64_t r = 0; r < agg.num_rows(); ++r) {
    const int64_t k = agg.column("k").ints()[static_cast<size_t>(r)];
    const auto& vs = groups.at(k);
    double sum = 0;
    double mn = vs[0];
    double mx = vs[0];
    for (double v : vs) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_NEAR(agg.column("sum").doubles()[static_cast<size_t>(r)], sum,
                1e-6);
    EXPECT_DOUBLE_EQ(agg.column("min").doubles()[static_cast<size_t>(r)], mn);
    EXPECT_DOUBLE_EQ(agg.column("max").doubles()[static_cast<size_t>(r)], mx);
    EXPECT_NEAR(agg.column("avg").doubles()[static_cast<size_t>(r)],
                sum / static_cast<double>(vs.size()), 1e-9);
    EXPECT_EQ(agg.column("cnt").ints()[static_cast<size_t>(r)],
              static_cast<int64_t>(vs.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatePropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25));

TEST(AggregateTest, GlobalOnEmptyInputYieldsOneRow) {
  Table t({{"v", DataType::kFloat64}});
  t.FinishBulkAppend();
  const Table agg = HashAggregate(
      t, {}, {{AggOp::kSum, Col("v"), "s"}, {AggOp::kCount, nullptr, "c"}});
  ASSERT_EQ(agg.num_rows(), 1);
  EXPECT_DOUBLE_EQ(agg.column("s").doubles()[0], 0.0);
  EXPECT_EQ(agg.column("c").ints()[0], 0);
}

TEST(AggregateTest, CountDistinct) {
  Table t({{"g", DataType::kInt64}, {"v", DataType::kInt64}});
  for (int64_t v : {1, 1, 2, 3, 3, 3}) {
    t.column(0).AppendInt(0);
    t.column(1).AppendInt(v);
  }
  t.FinishBulkAppend();
  const Table agg = HashAggregate(
      t, {"g"}, {{AggOp::kCountDistinct, Col("v"), "d"}});
  EXPECT_EQ(agg.column("d").ints()[0], 3);
}

TEST(SortTest, MultiKeyWithLimit) {
  Table t({{"a", DataType::kInt64}, {"b", DataType::kString}});
  const std::vector<std::pair<int64_t, std::string>> rows = {
      {2, "x"}, {1, "z"}, {1, "a"}, {3, "m"}, {1, "m"}};
  for (const auto& [a, s] : rows) {
    t.column(0).AppendInt(a);
    t.column(1).AppendString(s);
  }
  t.FinishBulkAppend();
  const Table sorted = SortBy(t, {{"a", true}, {"b", false}});
  EXPECT_EQ(sorted.column("b").strings(),
            (std::vector<std::string>{"z", "m", "a", "x", "m"}));
  const Table limited = SortBy(t, {{"a", true}, {"b", true}}, 2);
  EXPECT_EQ(limited.num_rows(), 2);
  EXPECT_EQ(limited.column("b").strings()[0], "a");
}

TEST(PartitionTest, UnionEqualsInputAndKeysStayTogether) {
  Rng rng(7);
  const Table t = RandomTable(&rng, 300, 17, "k", "v");
  const auto parts = PartitionByHash(t, {"k"}, 5);
  ASSERT_EQ(parts.size(), 5u);
  int64_t total = 0;
  std::map<int64_t, std::set<size_t>> key_partitions;
  for (size_t p = 0; p < parts.size(); ++p) {
    total += parts[p].num_rows();
    for (int64_t r = 0; r < parts[p].num_rows(); ++r) {
      key_partitions[parts[p].column("k").ints()[static_cast<size_t>(r)]]
          .insert(p);
    }
  }
  EXPECT_EQ(total, t.num_rows());
  for (const auto& [key, ps] : key_partitions) {
    EXPECT_EQ(ps.size(), 1u) << "key " << key << " split across partitions";
  }
}

TEST(ProjectTest, FilterThenProject) {
  const Table t = SmallTable();
  const Table out =
      Project(t, Eq(Col("k"), Lit(int64_t{1})),
              {{Mul(Col("v"), Lit(2.0)), "v2"}, {Col("s"), "s"}});
  EXPECT_EQ(out.num_rows(), 3);  // k==1 at rows 1,4,7
  EXPECT_DOUBLE_EQ(out.column("v2").doubles()[0], 3.0);
}

// ---------------------------------------------------------------------------
// Late-materialized scan: PlanBuilder::AddScan against the slice-then-project
// definition it replaced
// ---------------------------------------------------------------------------

/// `rows` rows of an int key, doubles with signed zeros and a denormal, a
/// date, a dictionary-encoded string and a plain (unique, so never encoded)
/// string. The tests use 1000 rows, which 3 and 7 tasks do not divide.
Table ScanTestTable(int64_t rows) {
  Table t({{"k", DataType::kInt64},
           {"v", DataType::kFloat64},
           {"d", DataType::kInt64},
           {"mode", DataType::kString},
           {"comment", DataType::kString}});
  const char* const modes[] = {"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"};
  const double specials[] = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(), -1.5};
  Rng rng(17);
  for (int64_t i = 0; i < rows; ++i) {
    t.column(0).AppendInt(rng.NextInt(-20, 80));
    t.column(1).AppendDouble(i % 11 == 0 ? specials[i % 4]
                                         : rng.NextDouble(-100.0, 100.0));
    t.column(2).AppendInt(DateFromCivil(1992, 1, 1) + rng.NextInt(0, 2500));
    t.column(3).AppendString(modes[rng.NextBounded(5)]);
    std::string comment = "comment ";
    comment += std::to_string(i);
    t.column(4).AppendString(std::move(comment));
  }
  t.FinishBulkAppend();
  t.DictEncodeStringColumns();
  return t;
}

/// Schema, row count, dictionary sidecars and every value bitwise (doubles
/// by bit pattern).
void ExpectBitIdentical(const Table& want, const Table& got) {
  ASSERT_EQ(want.num_rows(), got.num_rows());
  ASSERT_EQ(want.num_columns(), got.num_columns());
  for (int c = 0; c < want.num_columns(); ++c) {
    SCOPED_TRACE(want.column_def(c).name);
    EXPECT_EQ(want.column_def(c).name, got.column_def(c).name);
    ASSERT_EQ(want.column_def(c).type, got.column_def(c).type);
    const Column& w = want.column(c);
    const Column& g = got.column(c);
    ASSERT_EQ(w.has_dict(), g.has_dict());
    switch (w.type()) {
      case DataType::kInt64:
        EXPECT_EQ(w.ints(), g.ints());
        break;
      case DataType::kFloat64: {
        ASSERT_EQ(w.doubles().size(), g.doubles().size());
        for (size_t r = 0; r < w.doubles().size(); ++r) {
          ASSERT_EQ(std::bit_cast<uint64_t>(w.doubles()[r]),
                    std::bit_cast<uint64_t>(g.doubles()[r]))
              << "row " << r;
        }
        break;
      }
      case DataType::kString:
        EXPECT_EQ(w.strings(), g.strings());
        if (w.has_dict()) {
          EXPECT_EQ(w.dict_ptr(), g.dict_ptr());
          EXPECT_EQ(w.codes(), g.codes());
        }
        break;
    }
  }
}

/// Runs every task of an AddScan stage over `table` at 1, 3 and 7 tasks and
/// compares each task's output with Project(table.Slice(begin, end), ...).
/// Returns the oracle's total row count over the 1-task run.
int64_t CheckScanAgainstOracle(const Table& table, const ExprPtr& filter,
                               const std::vector<NamedExpr>& projections) {
  int64_t rows = 0;
  for (const int tasks : {1, 3, 7}) {
    PlanBuilder builder("scan_test");
    builder.AddScan("scan", &table, tasks, filter, projections, {}, 1);
    const StagePlan plan = builder.Build();
    const int64_t n = table.num_rows();
    for (int t = 0; t < tasks; ++t) {
      SCOPED_TRACE(testing::Message() << "tasks " << tasks << " task " << t);
      const Table oracle = Project(
          table.Slice(n * t / tasks, n * (t + 1) / tasks), filter, projections);
      ExpectBitIdentical(oracle, plan.stages[0].run(t, TaskInput{}));
      if (tasks == 1) rows += oracle.num_rows();
    }
  }
  return rows;
}

TEST(TableScanTest, FilterOnUnprojectedDictionaryColumn) {
  const Table t = ScanTestTable(1000);
  ASSERT_TRUE(t.column("mode").has_dict());
  ASSERT_FALSE(t.column("comment").has_dict());
  EXPECT_GT(CheckScanAgainstOracle(t, InString(Col("mode"), {"AIR", "MAIL"}),
                                   {{Col("k"), "k"}, {Col("v"), "v"}}),
            0);
  EXPECT_GT(CheckScanAgainstOracle(
                t, And(Eq(Col("mode"), Lit("RAIL")), Ge(Col("v"), Lit(0.0))),
                {{Col("comment"), "comment"}, {Col("d"), "d"}}),
            0);
}

TEST(TableScanTest, NoFilter) {
  const Table t = ScanTestTable(1000);
  EXPECT_EQ(CheckScanAgainstOracle(t, nullptr,
                                   {{Col("comment"), "comment"},
                                    {Col("mode"), "mode"},
                                    {Col("v"), "v"}}),
            1000);
}

TEST(TableScanTest, RenamedAndComputedProjections) {
  const Table t = ScanTestTable(1000);
  const std::vector<NamedExpr> projections = {
      {Col("k"), "key"},
      {Mul(Col("v"), Sub(Lit(1.0), Col("v"))), "rev"},
      {Div(Col("k"), Col("v")), "ratio"},
      {Year(Col("d")), "year"},
      {Substr(Col("mode"), 2), "mode2"},
      {If(Gt(Col("k"), Lit(int64_t{10})), Col("v"), Lit(0.0)), "cond"},
      {Col("mode"), "shipmode"}};
  EXPECT_GT(CheckScanAgainstOracle(
                t, Lt(Col("d"), Lit(DateFromCivil(1996, 1, 1))), projections),
            0);
  EXPECT_EQ(CheckScanAgainstOracle(t, nullptr, projections), 1000);
}

TEST(TableScanTest, ProjectionReadingNoColumnKeepsRowCount) {
  const Table t = ScanTestTable(1000);
  const std::vector<NamedExpr> literal = {{Lit(int64_t{1}), "one"},
                                          {Lit("x"), "tag"}};
  const int64_t filtered =
      CheckScanAgainstOracle(t, Eq(Col("mode"), Lit("SHIP")), literal);
  EXPECT_GT(filtered, 0);
  EXPECT_LT(filtered, 1000);
  EXPECT_EQ(CheckScanAgainstOracle(t, nullptr, literal), 1000);
  // A filter that reads no column either.
  EXPECT_EQ(CheckScanAgainstOracle(t, Eq(Lit(int64_t{1}), Lit(int64_t{1})),
                                   literal),
            1000);
}

TEST(TableScanTest, ColumnInFilterAndProjection) {
  const Table t = ScanTestTable(1000);
  EXPECT_GT(CheckScanAgainstOracle(
                t,
                And(Lt(Col("k"), Lit(int64_t{30})),
                    Ne(Col("mode"), Lit("AIR"))),
                {{Col("k"), "k"}, {Add(Col("k"), Lit(int64_t{1})), "k1"},
                 {Col("mode"), "mode"}}),
            0);
}

TEST(TableScanTest, EmptyTable) {
  const Table t = ScanTestTable(0);
  EXPECT_EQ(CheckScanAgainstOracle(t, Eq(Col("mode"), Lit("AIR")),
                                   {{Col("k"), "k"}, {Col("mode"), "mode"}}),
            0);
  EXPECT_EQ(CheckScanAgainstOracle(t, nullptr, {{Lit(2.0), "two"}}), 0);
}

// ---------------------------------------------------------------------------
// Plan executor
// ---------------------------------------------------------------------------

TEST(PlanExecutorTest, TwoStagePlanWithShuffle) {
  Rng rng(9);
  const Table base = RandomTable(&rng, 1000, 50, "k", "v");
  StagePlan plan;
  plan.name = "test_plan";
  PlanStage scan;
  scan.label = "scan";
  scan.num_tasks = 4;
  scan.output_keys = {"k"};
  scan.output_partitions = 3;
  scan.run = [&base](int t, const TaskInput&) {
    return base.Slice(base.num_rows() * t / 4, base.num_rows() * (t + 1) / 4);
  };
  plan.stages.push_back(std::move(scan));
  PlanStage agg;
  agg.label = "agg";
  agg.deps = {0};
  agg.broadcast = {false};
  agg.num_tasks = 3;
  agg.run = [](int, const TaskInput& in) {
    return HashAggregate(*in.tables[0], {"k"},
                         {{AggOp::kSum, Col("v"), "sum"}});
  };
  plan.stages.push_back(std::move(agg));

  PlanExecutor executor;
  PlanRunStats stats;
  const Table result = executor.Execute(plan, &stats);
  // Compare against a direct single-node aggregation.
  const Table direct =
      HashAggregate(base, {"k"}, {{AggOp::kSum, Col("v"), "sum"}});
  ASSERT_EQ(result.num_rows(), direct.num_rows());
  std::map<int64_t, double> expected;
  for (int64_t r = 0; r < direct.num_rows(); ++r) {
    expected[direct.column("k").ints()[static_cast<size_t>(r)]] =
        direct.column("sum").doubles()[static_cast<size_t>(r)];
  }
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    EXPECT_NEAR(result.column("sum").doubles()[static_cast<size_t>(r)],
                expected.at(result.column("k").ints()[static_cast<size_t>(r)]),
                1e-6);
  }
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_EQ(stats.stages[0].num_tasks, 4);
  EXPECT_EQ(static_cast<int>(stats.stages[0].task_micros.size()), 4);
  EXPECT_GT(stats.stages[0].output_bytes, 0);
}

namespace {

/// A diamond DAG: two independent scans feed a partitioned join stage whose
/// output is gathered by a final merge — enough structure to exercise stage
/// overlap, multi-dep inputs, and the partition/concat shuffle steps.
StagePlan DiamondPlan(const Table& left, const Table& right) {
  StagePlan plan;
  plan.name = "diamond";
  PlanStage lscan;
  lscan.label = "left_scan";
  lscan.num_tasks = 3;
  lscan.output_keys = {"k"};
  lscan.output_partitions = 2;
  lscan.run = [&left](int t, const TaskInput&) {
    return left.Slice(left.num_rows() * t / 3, left.num_rows() * (t + 1) / 3);
  };
  plan.stages.push_back(std::move(lscan));
  PlanStage rscan;
  rscan.label = "right_scan";
  rscan.num_tasks = 2;
  rscan.output_keys = {"k"};
  rscan.output_partitions = 2;
  rscan.run = [&right](int t, const TaskInput&) {
    return right.Slice(right.num_rows() * t / 2,
                       right.num_rows() * (t + 1) / 2);
  };
  plan.stages.push_back(std::move(rscan));
  PlanStage join;
  join.label = "join";
  join.deps = {0, 1};
  join.broadcast = {false, false};
  join.num_tasks = 2;
  join.output_keys = {"k"};
  join.output_partitions = 2;
  join.run = [](int, const TaskInput& in) {
    return HashAggregate(*in.tables[0], {"k"},
                         {{AggOp::kSum, Col("v"), "lsum"},
                          {AggOp::kCount, Col("v"), "cnt"}});
  };
  plan.stages.push_back(std::move(join));
  PlanStage merge;
  merge.label = "merge";
  merge.deps = {2};
  merge.broadcast = {false};
  merge.num_tasks = 2;
  merge.output_partitions = 1;
  merge.run = [](int, const TaskInput& in) {
    return HashAggregate(*in.tables[0], {"k"},
                         {{AggOp::kSum, Col("lsum"), "total"}});
  };
  plan.stages.push_back(std::move(merge));
  return plan;
}

/// Exact (bit-identical) table equality — the executor's determinism
/// contract says even float summation order matches serial execution.
void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column_def(c).type, b.column_def(c).type);
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      const size_t i = static_cast<size_t>(r);
      switch (a.column_def(c).type) {
        case DataType::kInt64:
          ASSERT_EQ(a.column(c).ints()[i], b.column(c).ints()[i]);
          break;
        case DataType::kFloat64:
          // EXPECT_EQ, not NEAR: identical merge order => identical bits.
          ASSERT_EQ(a.column(c).doubles()[i], b.column(c).doubles()[i]);
          break;
        case DataType::kString:
          ASSERT_EQ(a.column(c).strings()[i], b.column(c).strings()[i]);
          break;
      }
    }
  }
}

}  // namespace

TEST(PlanExecutorTest, SerialAndPooledConfigsAgree) {
  Rng rng(17);
  const Table left = RandomTable(&rng, 2000, 40, "k", "v");
  const Table right = RandomTable(&rng, 800, 40, "k", "v");
  const StagePlan plan = DiamondPlan(left, right);

  PlanExecutor serial(1);
  PlanExecutor pooled(4);

  PlanRunStats serial_stats, pooled_stats;
  const Table a = serial.Execute(plan, &serial_stats);
  const Table b = pooled.Execute(plan, &pooled_stats);

  ExpectTablesIdentical(a, b);

  // Stats invariants: both configs account for every task exactly once
  // (no double-counted and no lost slots) and see identical data volumes.
  const PlanRunStats* const runs[] = {&serial_stats, &pooled_stats};
  for (const PlanRunStats* run : runs) {
    ASSERT_EQ(run->stages.size(), plan.stages.size());
    for (size_t i = 0; i < plan.stages.size(); ++i) {
      const StageStats& s = run->stages[i];
      EXPECT_EQ(s.label, plan.stages[i].label);
      EXPECT_EQ(s.num_tasks, plan.stages[i].num_tasks);
      ASSERT_EQ(static_cast<int>(s.task_micros.size()), s.num_tasks);
      for (const int64_t us : s.task_micros) EXPECT_GE(us, 0);
      EXPECT_EQ(s.output_bytes, serial_stats.stages[i].output_bytes);
      EXPECT_EQ(s.output_rows, serial_stats.stages[i].output_rows);
    }
    EXPECT_GT(run->peak_resident_bytes, 0);
    EXPECT_GE(run->total_micros, 0);
  }
}

// ---------------------------------------------------------------------------
// Data generator
// ---------------------------------------------------------------------------

TEST(DatagenTest, RowCountsScale) {
  const Catalog cat = GenerateTpch(0.01);
  EXPECT_EQ(cat.region.num_rows(), 5);
  EXPECT_EQ(cat.nation.num_rows(), 25);
  EXPECT_EQ(cat.supplier.num_rows(), 100);
  EXPECT_EQ(cat.part.num_rows(), 2000);
  EXPECT_EQ(cat.partsupp.num_rows(), 8000);
  EXPECT_EQ(cat.customer.num_rows(), 1500);
  EXPECT_EQ(cat.orders.num_rows(), 15000);
  // ~4 lineitems per order.
  EXPECT_GT(cat.lineitem.num_rows(), 3 * cat.orders.num_rows());
  EXPECT_LT(cat.lineitem.num_rows(), 5 * cat.orders.num_rows());
}

TEST(DatagenTest, DeterministicInSeed) {
  const Catalog a = GenerateTpch(0.002, 99);
  const Catalog b = GenerateTpch(0.002, 99);
  EXPECT_EQ(a.lineitem.num_rows(), b.lineitem.num_rows());
  EXPECT_EQ(a.orders.column("o_totalprice").doubles(),
            b.orders.column("o_totalprice").doubles());
}

TEST(DatagenTest, ReferentialIntegrity) {
  const Catalog cat = GenerateTpch(0.005);
  const int64_t num_supplier = cat.supplier.num_rows();
  const int64_t num_part = cat.part.num_rows();
  const int64_t num_customer = cat.customer.num_rows();
  std::set<int64_t> orderkeys(cat.orders.column("o_orderkey").ints().begin(),
                              cat.orders.column("o_orderkey").ints().end());
  ASSERT_EQ(static_cast<int64_t>(orderkeys.size()), cat.orders.num_rows());
  for (int64_t v : cat.orders.column("o_custkey").ints()) {
    ASSERT_GE(v, 1);
    ASSERT_LE(v, num_customer);
    ASSERT_NE(v % 3, 0) << "a third of customers must have no orders";
  }
  for (int64_t v : cat.lineitem.column("l_orderkey").ints()) {
    ASSERT_TRUE(orderkeys.count(v));
  }
  for (int64_t v : cat.lineitem.column("l_partkey").ints()) {
    ASSERT_GE(v, 1);
    ASSERT_LE(v, num_part);
  }
  for (int64_t v : cat.lineitem.column("l_suppkey").ints()) {
    ASSERT_GE(v, 1);
    ASSERT_LE(v, num_supplier);
  }
  for (int64_t v : cat.partsupp.column("ps_suppkey").ints()) {
    ASSERT_GE(v, 1);
    ASSERT_LE(v, num_supplier);
  }
}

TEST(DatagenTest, LineitemSuppkeysComeFromPartsupp) {
  // The spec's ps_suppkey formula must make every (l_partkey, l_suppkey)
  // pair exist in partsupp — Q9/Q20/Q25 join on that pair.
  const Catalog cat = GenerateTpch(0.005);
  std::set<std::pair<int64_t, int64_t>> ps;
  for (int64_t r = 0; r < cat.partsupp.num_rows(); ++r) {
    ps.emplace(cat.partsupp.column("ps_partkey").ints()[static_cast<size_t>(r)],
               cat.partsupp.column("ps_suppkey").ints()[static_cast<size_t>(r)]);
  }
  for (int64_t r = 0; r < cat.lineitem.num_rows(); ++r) {
    ASSERT_TRUE(ps.count(
        {cat.lineitem.column("l_partkey").ints()[static_cast<size_t>(r)],
         cat.lineitem.column("l_suppkey").ints()[static_cast<size_t>(r)]}))
        << "row " << r;
  }
}

TEST(DatagenTest, DatesWithinSpecRange) {
  const Catalog cat = GenerateTpch(0.002);
  for (int64_t v : cat.orders.column("o_orderdate").ints()) {
    ASSERT_GE(v, kTpchStartDate);
    ASSERT_LE(v, kTpchEndDate);
  }
  for (int64_t r = 0; r < cat.lineitem.num_rows(); ++r) {
    const int64_t ship =
        cat.lineitem.column("l_shipdate").ints()[static_cast<size_t>(r)];
    const int64_t receipt =
        cat.lineitem.column("l_receiptdate").ints()[static_cast<size_t>(r)];
    ASSERT_GT(receipt, ship);
  }
}

TEST(DatagenTest, VocabulariesMatchQueryPredicates) {
  const Catalog cat = GenerateTpch(0.01);
  // Q6-style selectivity: some lineitems in the 1994 discount band.
  int64_t q6_rows = 0;
  for (int64_t r = 0; r < cat.lineitem.num_rows(); ++r) {
    const double disc =
        cat.lineitem.column("l_discount").doubles()[static_cast<size_t>(r)];
    if (disc >= 0.05 && disc <= 0.07) ++q6_rows;
  }
  EXPECT_GT(q6_rows, cat.lineitem.num_rows() / 10);
  // Q19 vocabulary: brands and containers exist.
  bool has_brand = false;
  bool has_container = false;
  for (int64_t r = 0; r < cat.part.num_rows(); ++r) {
    has_brand |= cat.part.column("p_brand").strings()[static_cast<size_t>(r)] ==
                 "Brand#23";
    has_container |=
        cat.part.column("p_container").strings()[static_cast<size_t>(r)] ==
        "MED BOX";
  }
  EXPECT_TRUE(has_brand);
  EXPECT_TRUE(has_container);
  // Q20: some parts are "forest ..." named.
  int64_t forest = 0;
  for (const std::string& name : cat.part.column("p_name").strings()) {
    forest += name.rfind("forest", 0) == 0;
  }
  EXPECT_GT(forest, 0);
}

}  // namespace
}  // namespace cackle::exec
