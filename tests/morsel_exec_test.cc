// Unit tests for the intra-operator parallelism layer: morsel splitting of
// the join, aggregate and partition loops. The executor-level golden suite
// proves the 25 TPC-H queries stay bit-identical; these tests pin the
// operator-level contract directly — every morsel size reproduces the
// default path's rows bit-for-bit, pool or no pool, including full key skew
// and an empty build side.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/exec_metrics.h"
#include "exec/op_context.h"
#include "exec/operators.h"
#include "exec/table.h"

namespace cackle::exec {
namespace {

// Splitmix64: cheap deterministic 64-bit hash for test key generation.
uint64_t TestHash(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Table IntTable(const std::string& key_name, std::vector<int64_t> keys,
               const std::string& payload_name) {
  Column key(DataType::kInt64);
  Column payload(DataType::kInt64);
  for (size_t i = 0; i < keys.size(); ++i) {
    key.AppendInt(keys[i]);
    payload.AppendInt(static_cast<int64_t>(i) * 10);
  }
  Table t;
  t.AddColumn({key_name, DataType::kInt64}, std::move(key));
  t.AddColumn({payload_name, DataType::kInt64}, std::move(payload));
  return t;
}

void ExpectTablesBitIdentical(const Table& want, const Table& got) {
  ASSERT_EQ(want.num_rows(), got.num_rows());
  ASSERT_EQ(want.num_columns(), got.num_columns());
  for (int c = 0; c < want.num_columns(); ++c) {
    SCOPED_TRACE(testing::Message() << "column " << want.column_def(c).name);
    EXPECT_EQ(want.column_def(c).name, got.column_def(c).name);
    ASSERT_EQ(want.column_def(c).type, got.column_def(c).type);
    switch (want.column_def(c).type) {
      case DataType::kInt64:
        EXPECT_EQ(want.column(c).ints(), got.column(c).ints());
        break;
      case DataType::kFloat64:
        // Exact vector equality: bit-identical doubles, not epsilon-close.
        EXPECT_EQ(want.column(c).doubles(), got.column(c).doubles());
        break;
      case DataType::kString:
        EXPECT_EQ(want.column(c).strings(), got.column(c).strings());
        break;
    }
  }
}

// ---------------------------------------------------- join knob equivalence

struct JoinCase {
  const char* label;
  std::vector<int64_t> left_keys;
  std::vector<int64_t> right_keys;
};

std::vector<JoinCase> JoinCases() {
  std::vector<JoinCase> cases;
  {
    // Dense many-to-many with misses on both sides.
    JoinCase c;
    c.label = "dense";
    for (int64_t i = 0; i < 4000; ++i) c.left_keys.push_back(i % 257);
    for (int64_t i = 0; i < 900; ++i) c.right_keys.push_back((i * 3) % 300);
    cases.push_back(std::move(c));
  }
  {
    // Full skew: every build (right) key identical, so one chain holds
    // every build row.
    JoinCase c;
    c.label = "single_key_skew";
    for (int64_t i = 0; i < 1000; ++i) c.left_keys.push_back(i % 7 == 0 ? 42 : i);
    c.right_keys.assign(64, 42);
    cases.push_back(std::move(c));
  }
  {
    // Tiny build side: almost every probe misses.
    JoinCase c;
    c.label = "tiny_build";
    for (int64_t i = 0; i < 500; ++i) c.left_keys.push_back(i);
    c.right_keys = {3, 141, 59, 265};
    cases.push_back(std::move(c));
  }
  {
    // Empty build side entirely.
    JoinCase c;
    c.label = "empty_build";
    for (int64_t i = 0; i < 100; ++i) c.left_keys.push_back(i);
    cases.push_back(std::move(c));
  }
  return cases;
}

class JoinKnobEquivalenceTest : public ::testing::TestWithParam<JoinType> {};

TEST_P(JoinKnobEquivalenceTest, AllKnobCombinationsMatchDefaultPath) {
  const JoinType type = GetParam();
  ThreadPool pool(4);
  for (const JoinCase& jc : JoinCases()) {
    SCOPED_TRACE(jc.label);
    const Table left = IntTable("k", jc.left_keys, "lpay");
    const Table right = IntTable("rk", jc.right_keys, "rpay");
    const Table want = HashJoin(left, {"k"}, right, {"rk"}, type);

    struct Knobs {
      const char* label;
      int64_t morsel_rows;
      bool use_pool;
    };
    const Knobs combos[] = {
        {"morsel_inline", 64, false},
        {"morsel_pool", 64, true},
        {"morsel_pool_128", 128, true},
    };
    for (const Knobs& k : combos) {
      SCOPED_TRACE(k.label);
      OpExecContext ctx;
      ctx.pool = k.use_pool ? &pool : nullptr;
      ctx.morsel_rows = k.morsel_rows;
      const ScopedOpExecContext scope(&ctx);
      ExpectTablesBitIdentical(want,
                               HashJoin(left, {"k"}, right, {"rk"}, type));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllJoinTypes, JoinKnobEquivalenceTest,
                         ::testing::Values(JoinType::kInner,
                                           JoinType::kLeftOuter,
                                           JoinType::kLeftSemi,
                                           JoinType::kLeftAnti));

// ------------------------------------------------- aggregate knob equivalence

TEST(MorselAggregateTest, MorselSplitsAreBitIdenticalIncludingDoubleSums) {
  // Group count large enough to exercise the hash path and double sums whose
  // value depends on summation order if anyone reassociates them.
  constexpr int64_t kRows = 20000;
  Column g(DataType::kInt64);
  Column v(DataType::kFloat64);
  for (int64_t i = 0; i < kRows; ++i) {
    g.AppendInt(static_cast<int64_t>(TestHash(i) % 97));
    v.AppendDouble(1.0 + 1e-12 * static_cast<double>(TestHash(i) % 1000003));
  }
  Table t;
  t.AddColumn({"g", DataType::kInt64}, std::move(g));
  t.AddColumn({"v", DataType::kFloat64}, std::move(v));

  std::vector<AggSpec> aggs;
  aggs.push_back({AggOp::kSum, Col("v"), "sum_v"});
  aggs.push_back({AggOp::kAvg, Col("v"), "avg_v"});
  aggs.push_back({AggOp::kMin, Col("v"), "min_v"});
  aggs.push_back({AggOp::kMax, Col("v"), "max_v"});
  aggs.push_back({AggOp::kCount, nullptr, "n"});
  const Table want = HashAggregate(t, {"g"}, aggs);

  ThreadPool pool(4);
  for (const int64_t morsel_rows : {64, 1024, 50000}) {
    SCOPED_TRACE(testing::Message() << "morsel_rows " << morsel_rows);
    OpExecContext ctx;
    ctx.pool = &pool;
    ctx.morsel_rows = morsel_rows;
    const ScopedOpExecContext scope(&ctx);
    ExpectTablesBitIdentical(want, HashAggregate(t, {"g"}, aggs));
  }
}

TEST(MorselAggregateTest, EmptyAndSingleRowInputs) {
  Table t;
  t.AddColumn({"g", DataType::kInt64}, Column(DataType::kInt64));
  t.AddColumn({"v", DataType::kFloat64}, Column(DataType::kFloat64));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggOp::kSum, Col("v"), "sum_v"});
  const Table want_empty = HashAggregate(t, {"g"}, aggs);

  ThreadPool pool(2);
  OpExecContext ctx;
  ctx.pool = &pool;
  ctx.morsel_rows = 8;
  const ScopedOpExecContext scope(&ctx);
  ExpectTablesBitIdentical(want_empty, HashAggregate(t, {"g"}, aggs));
}

// ------------------------------------------------- partition knob equivalence

TEST(MorselPartitionTest, PartitionByHashMatchesDefaultAcrossKnobs) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 5000; ++i) {
    keys.push_back(static_cast<int64_t>(TestHash(i) % 1000));
  }
  const Table t = IntTable("k", keys, "pay");
  const std::vector<Table> want = PartitionByHash(t, {"k"}, 7);

  ThreadPool pool(4);
  OpExecContext ctx;
  ctx.pool = &pool;
  ctx.morsel_rows = 256;
  const ScopedOpExecContext scope(&ctx);
  const std::vector<Table> got = PartitionByHash(t, {"k"}, 7);
  ASSERT_EQ(want.size(), got.size());
  for (size_t p = 0; p < want.size(); ++p) {
    SCOPED_TRACE(testing::Message() << "partition " << p);
    ExpectTablesBitIdentical(want[p], got[p]);
  }
}

// Morsel metrics: splitting must be observable (the TSan job keys off these
// tests; a silent fallback to serial would fake a pass).
TEST(MorselMetricsTest, SplittingIsCounted) {
  ExecKernelMetrics& m = ExecMetrics();
  const int64_t tasks_before = m.morsel_tasks.load(std::memory_order_relaxed);

  std::vector<int64_t> keys(4096);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i % 300);
  }
  const Table left = IntTable("k", keys, "lpay");
  const Table right = IntTable("rk", {1, 2, 3, 4, 5}, "rpay");

  ThreadPool pool(4);
  OpExecContext ctx;
  ctx.pool = &pool;
  ctx.morsel_rows = 512;
  const ScopedOpExecContext scope(&ctx);
  (void)HashJoin(left, {"k"}, right, {"rk"}, JoinType::kInner);
  EXPECT_GT(m.morsel_tasks.load(std::memory_order_relaxed), tasks_before);
}

}  // namespace
}  // namespace cackle::exec
