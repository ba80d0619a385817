// Edge-case and property coverage for the executor's operators beyond the
// happy paths in exec_test.cc: string and composite join keys, empty
// inputs, join multiplicity and row order, aggregate summation order, sort
// totality, and partition determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "exec/expr.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace cackle::exec {
namespace {

Table KeyValue(std::vector<std::pair<std::string, int64_t>> rows,
               const char* key_name = "k", const char* val_name = "v") {
  Table t({{key_name, DataType::kString}, {val_name, DataType::kInt64}});
  for (auto& [k, v] : rows) {
    t.column(0).AppendString(k);
    t.column(1).AppendInt(v);
  }
  t.FinishBulkAppend();
  return t;
}

/// Int64 key column plus an int64 payload that is 10x the row index.
Table IntKeyPayload(const char* key_name, const std::vector<int64_t>& keys,
                    const char* payload_name) {
  Table t({{key_name, DataType::kInt64}, {payload_name, DataType::kInt64}});
  for (size_t i = 0; i < keys.size(); ++i) {
    t.column(0).AppendInt(keys[i]);
    t.column(1).AppendInt(static_cast<int64_t>(i) * 10);
  }
  t.FinishBulkAppend();
  return t;
}

TEST(HashJoinEdgeTest, StringKeys) {
  const Table left = KeyValue({{"a", 1}, {"b", 2}, {"c", 3}}, "lk", "lv");
  const Table right = KeyValue({{"b", 20}, {"c", 30}, {"d", 40}}, "rk", "rv");
  const Table j = HashJoin(left, {"lk"}, right, {"rk"});
  ASSERT_EQ(j.num_rows(), 2);
  for (int64_t r = 0; r < j.num_rows(); ++r) {
    EXPECT_EQ(j.column("lk").strings()[static_cast<size_t>(r)],
              j.column("rk").strings()[static_cast<size_t>(r)]);
  }
}

TEST(HashJoinEdgeTest, CompositeMixedTypeKeys) {
  Table left({{"a", DataType::kInt64}, {"b", DataType::kString},
              {"x", DataType::kInt64}});
  Table right({{"c", DataType::kInt64}, {"d", DataType::kString},
               {"y", DataType::kInt64}});
  for (int i = 0; i < 20; ++i) {
    left.column(0).AppendInt(i % 3);
    left.column(1).AppendString(i % 2 == 0 ? "even" : "odd");
    left.column(2).AppendInt(i);
  }
  left.FinishBulkAppend();
  right.column(0).AppendInt(1);
  right.column(1).AppendString("odd");
  right.column(2).AppendInt(100);
  right.FinishBulkAppend();
  const Table j = HashJoin(left, {"a", "b"}, right, {"c", "d"});
  // Left rows with a==1 and "odd": i in {1,7,13,19} -> a=1 iff i%3==1 and
  // i odd: i = 1, 7, 13, 19.
  EXPECT_EQ(j.num_rows(), 4);
}

TEST(HashJoinEdgeTest, DuplicateKeysMultiply) {
  const Table left = KeyValue({{"a", 1}, {"a", 2}}, "lk", "lv");
  const Table right = KeyValue({{"a", 10}, {"a", 20}, {"a", 30}}, "rk", "rv");
  EXPECT_EQ(HashJoin(left, {"lk"}, right, {"rk"}).num_rows(), 6);
  EXPECT_EQ(HashJoin(left, {"lk"}, right, {"rk"}, JoinType::kLeftSemi)
                .num_rows(),
            2);
}

TEST(HashJoinEdgeTest, EmptySides) {
  const Table left = KeyValue({{"a", 1}}, "lk", "lv");
  const Table empty = KeyValue({}, "rk", "rv");
  EXPECT_EQ(HashJoin(left, {"lk"}, empty, {"rk"}).num_rows(), 0);
  EXPECT_EQ(HashJoin(left, {"lk"}, empty, {"rk"}, JoinType::kLeftAnti)
                .num_rows(),
            1);
  EXPECT_EQ(HashJoin(empty, {"rk"}, left, {"lk"}).num_rows(), 0);
  const Table outer =
      HashJoin(left, {"lk"}, empty, {"rk"}, JoinType::kLeftOuter);
  ASSERT_EQ(outer.num_rows(), 1);
  EXPECT_EQ(outer.column("rv").ints()[0], 0);  // null padding
  EXPECT_EQ(outer.column("rk").strings()[0], "");
}

TEST(HashJoinEdgeTest, OuterJoinPadsAllTypes) {
  Table left({{"k", DataType::kInt64}});
  left.column(0).AppendInt(99);
  left.FinishBulkAppend();
  Table right({{"rk", DataType::kInt64},
               {"d", DataType::kFloat64},
               {"s", DataType::kString}});
  right.FinishBulkAppend();
  const Table j = HashJoin(left, {"k"}, right, {"rk"}, JoinType::kLeftOuter);
  ASSERT_EQ(j.num_rows(), 1);
  EXPECT_DOUBLE_EQ(j.column("d").doubles()[0], 0.0);
  EXPECT_EQ(j.column("s").strings()[0], "");
}

// Every join type against a nested-loop reference, row for row: output runs
// in ascending left-row order, each key's build rows in ascending order,
// and a left-outer miss pads the build columns with zeros. The cases cover
// many-to-many keys, one key holding every build row, a tiny build side and
// an empty one.
TEST(HashJoinEdgeTest, RowsMatchNestedLoopReferenceInOrder) {
  struct Case {
    const char* label;
    std::vector<int64_t> left;
    std::vector<int64_t> right;
  };
  std::vector<Case> cases(4);
  cases[0].label = "dense";
  for (int64_t i = 0; i < 4000; ++i) cases[0].left.push_back(i % 257);
  for (int64_t i = 0; i < 900; ++i) cases[0].right.push_back((i * 3) % 300);
  cases[1].label = "single_key_skew";
  for (int64_t i = 0; i < 1000; ++i) {
    cases[1].left.push_back(i % 7 == 0 ? 42 : i);
  }
  cases[1].right.assign(64, 42);
  cases[2].label = "tiny_build";
  for (int64_t i = 0; i < 500; ++i) cases[2].left.push_back(i);
  cases[2].right = {3, 141, 59, 265};
  cases[3].label = "empty_build";
  for (int64_t i = 0; i < 100; ++i) cases[3].left.push_back(i);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const Table left = IntKeyPayload("k", c.left, "lpay");
    const Table right = IntKeyPayload("rk", c.right, "rpay");
    for (const JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                                JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      SCOPED_TRACE(testing::Message() << "join type " << static_cast<int>(type));
      const bool emit_right =
          type == JoinType::kInner || type == JoinType::kLeftOuter;
      std::vector<int64_t> k, lpay, rk, rpay;
      auto emit = [&](size_t l, int64_t rkey, int64_t rpayload) {
        k.push_back(c.left[l]);
        lpay.push_back(static_cast<int64_t>(l) * 10);
        rk.push_back(rkey);
        rpay.push_back(rpayload);
      };
      for (size_t l = 0; l < c.left.size(); ++l) {
        bool matched = false;
        for (size_t r = 0; r < c.right.size(); ++r) {
          if (c.left[l] != c.right[r]) continue;
          matched = true;
          if (emit_right) emit(l, c.right[r], static_cast<int64_t>(r) * 10);
        }
        if ((type == JoinType::kLeftSemi && matched) ||
            (type == JoinType::kLeftAnti && !matched) ||
            (type == JoinType::kLeftOuter && !matched)) {
          emit(l, 0, 0);
        }
      }
      const Table j = HashJoin(left, {"k"}, right, {"rk"}, type);
      ASSERT_EQ(j.num_columns(), emit_right ? 4 : 2);
      EXPECT_EQ(j.column("k").ints(), k);
      EXPECT_EQ(j.column("lpay").ints(), lpay);
      if (emit_right) {
        EXPECT_EQ(j.column("rk").ints(), rk);
        EXPECT_EQ(j.column("rpay").ints(), rpay);
      }
    }
  }
}

TEST(AggregateEdgeTest, StringGroupKeysAndEmptyGroups) {
  const Table t = KeyValue({{"x", 1}, {"y", 2}, {"x", 3}});
  const Table agg =
      HashAggregate(t, {"k"}, {{AggOp::kSum, Col("v"), "sum"}});
  ASSERT_EQ(agg.num_rows(), 2);
  // Summing an int64 column keeps the integer type.
  ASSERT_EQ(agg.column_def(1).type, DataType::kInt64);
  std::map<std::string, int64_t> sums;
  for (int64_t r = 0; r < agg.num_rows(); ++r) {
    sums[agg.column("k").strings()[static_cast<size_t>(r)]] =
        agg.column("sum").ints()[static_cast<size_t>(r)];
  }
  EXPECT_EQ(sums.at("x"), 4);
  EXPECT_EQ(sums.at("y"), 2);
  // Grouped aggregate over empty input: no rows (vs global's one row).
  const Table empty = KeyValue({});
  EXPECT_EQ(HashAggregate(empty, {"k"}, {{AggOp::kSum, Col("v"), "s"}})
                .num_rows(),
            0);
}

TEST(AggregateEdgeTest, MinMaxOfIntegerColumnKeepsIntType) {
  const Table t = KeyValue({{"g", 5}, {"g", -3}, {"g", 9}});
  const Table agg = HashAggregate(
      t, {"k"},
      {{AggOp::kMin, Col("v"), "mn"}, {AggOp::kMax, Col("v"), "mx"}});
  EXPECT_EQ(agg.column_def(1).type, DataType::kInt64);
  EXPECT_EQ(agg.column("mn").ints()[0], -3);
  EXPECT_EQ(agg.column("mx").ints()[0], 9);
}

// Double aggregates accumulate each group's values in ascending row order:
// exact (not epsilon) equality with a sequential reference, on values whose
// sum changes in the low bits under any other association.
TEST(AggregateEdgeTest, DoubleSumsAccumulateInRowOrder) {
  constexpr int64_t kRows = 20000;
  Rng rng(97);
  Table t({{"g", DataType::kInt64}, {"v", DataType::kFloat64}});
  for (int64_t i = 0; i < kRows; ++i) {
    t.column(0).AppendInt(rng.NextInt(0, 96));
    t.column(1).AppendDouble(
        1.0 + 1e-12 * static_cast<double>(rng.NextInt(0, 1000002)));
  }
  t.FinishBulkAppend();
  const Table agg = HashAggregate(t, {"g"},
                                  {{AggOp::kSum, Col("v"), "sum"},
                                   {AggOp::kAvg, Col("v"), "avg"},
                                   {AggOp::kMin, Col("v"), "min"},
                                   {AggOp::kMax, Col("v"), "max"},
                                   {AggOp::kCount, nullptr, "n"}});

  struct Acc {
    double sum = 0.0;
    double mn = 0.0;
    double mx = 0.0;
    int64_t n = 0;
  };
  std::vector<int64_t> first_seen;
  std::map<int64_t, Acc> groups;
  for (int64_t r = 0; r < kRows; ++r) {
    const int64_t g = t.column(0).ints()[static_cast<size_t>(r)];
    const double v = t.column(1).doubles()[static_cast<size_t>(r)];
    Acc& acc = groups[g];
    if (acc.n == 0) {
      first_seen.push_back(g);
      acc.mn = acc.mx = v;
    }
    acc.sum += v;
    acc.mn = std::min(acc.mn, v);
    acc.mx = std::max(acc.mx, v);
    ++acc.n;
  }
  ASSERT_EQ(agg.num_rows(), static_cast<int64_t>(first_seen.size()));
  for (int64_t r = 0; r < agg.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    ASSERT_EQ(agg.column("g").ints()[i], first_seen[i]);
    const Acc& acc = groups.at(first_seen[i]);
    EXPECT_EQ(agg.column("sum").doubles()[i], acc.sum);
    EXPECT_EQ(agg.column("avg").doubles()[i],
              acc.sum / static_cast<double>(acc.n));
    EXPECT_EQ(agg.column("min").doubles()[i], acc.mn);
    EXPECT_EQ(agg.column("max").doubles()[i], acc.mx);
    EXPECT_EQ(agg.column("n").ints()[i], acc.n);
  }
}

TEST(SortEdgeTest, StableOnTies) {
  Table t({{"key", DataType::kInt64}, {"order", DataType::kInt64}});
  for (int64_t i = 0; i < 10; ++i) {
    t.column(0).AppendInt(i % 2);
    t.column(1).AppendInt(i);
  }
  t.FinishBulkAppend();
  const Table sorted = SortBy(t, {{"key", true}});
  // Within each key, original order preserved (stable sort).
  int64_t prev = -1;
  for (int64_t r = 0; r < sorted.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (sorted.column("key").ints()[i] == 0) {
      EXPECT_GT(sorted.column("order").ints()[i], prev);
      prev = sorted.column("order").ints()[i];
    }
  }
}

TEST(SortEdgeTest, AllTypesAndEmpty) {
  Table t({{"i", DataType::kInt64},
           {"d", DataType::kFloat64},
           {"s", DataType::kString}});
  t.FinishBulkAppend();
  EXPECT_EQ(SortBy(t, {{"i", true}, {"d", false}, {"s", true}}).num_rows(),
            0);
  t.column(0).AppendInt(2);
  t.column(1).AppendDouble(1.5);
  t.column(2).AppendString("b");
  t.column(0).AppendInt(2);
  t.column(1).AppendDouble(1.5);
  t.column(2).AppendString("a");
  t.FinishBulkAppend();
  const Table sorted = SortBy(t, {{"i", true}, {"d", true}, {"s", true}});
  EXPECT_EQ(sorted.column("s").strings()[0], "a");
}

TEST(PartitionEdgeTest, SinglePartitionIsIdentityOrder) {
  const Table t = KeyValue({{"a", 1}, {"b", 2}, {"c", 3}});
  const auto parts = PartitionByHash(t, {"k"}, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].num_rows(), 3);
  EXPECT_EQ(parts[0].column("v").ints(), (std::vector<int64_t>{1, 2, 3}));
}

TEST(PartitionEdgeTest, DeterministicAcrossCalls) {
  Rng rng(42);
  Table t({{"k", DataType::kInt64}});
  for (int i = 0; i < 500; ++i) {
    t.column(0).AppendInt(rng.NextInt(0, 1000));
  }
  t.FinishBulkAppend();
  const auto a = PartitionByHash(t, {"k"}, 7);
  const auto b = PartitionByHash(t, {"k"}, 7);
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].num_rows(), b[p].num_rows());
  }
}

TEST(ExprEdgeTest, DivisionByZeroYieldsZero) {
  Table t({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}});
  t.column(0).AppendDouble(10.0);
  t.column(1).AppendDouble(0.0);
  t.FinishBulkAppend();
  const Column c = Div(Col("x"), Col("y"))->Eval(t);
  EXPECT_DOUBLE_EQ(c.doubles()[0], 0.0);  // documented sentinel, not NaN
}

TEST(ExprEdgeTest, AllOfSingleElement) {
  Table t({{"x", DataType::kInt64}});
  t.column(0).AppendInt(5);
  t.FinishBulkAppend();
  const Column c = AllOf({Gt(Col("x"), Lit(int64_t{3}))})->Eval(t);
  EXPECT_EQ(c.ints()[0], 1);
}

TEST(SelectRenameTest, ReorderAndRename) {
  const Table t = KeyValue({{"a", 1}});
  const Table sel = SelectColumns(t, {"v", "k"});
  EXPECT_EQ(sel.column_def(0).name, "v");
  const Table ren = RenameColumns(sel, {"value", "key"});
  EXPECT_EQ(ren.column_def(1).name, "key");
  EXPECT_EQ(ren.column("key").strings()[0], "a");
}

}  // namespace
}  // namespace cackle::exec
