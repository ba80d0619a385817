// Coverage for the vectorized executor kernels: dictionary-encoded string
// columns (encode/decode round-trips, sidecar propagation through gathers
// and storage), the packed-key flat hash table (growth, fallback parity),
// exact double key semantics, and selection-vector filtering.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "exec/exec_metrics.h"
#include "exec/expr.h"
#include "exec/flat_hash.h"
#include "exec/operators.h"
#include "exec/storage.h"
#include "exec/table.h"

namespace cackle::exec {
namespace {

Table IntKeyed(const std::vector<int64_t>& keys, const char* key_name = "k",
               const char* val_name = "v") {
  Table t({{key_name, DataType::kInt64}, {val_name, DataType::kInt64}});
  for (size_t i = 0; i < keys.size(); ++i) {
    t.column(0).AppendInt(keys[i]);
    t.column(1).AppendInt(static_cast<int64_t>(i));
  }
  t.FinishBulkAppend();
  return t;
}

// --- double keys (regression: ExtractKey used to hash doubles, so distinct
// --- doubles could collide into one join/group key) -------------------------

TEST(DoubleKeyTest, AdversarialDoublesStayDistinct) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double next1 = std::nextafter(1.0, 2.0);
  const std::vector<double> values = {0.0,  -0.0, 1.0,   next1,
                                      tiny, -tiny, 1e308, -1e308};
  Table t({{"d", DataType::kFloat64}});
  for (double v : values) t.column(0).AppendDouble(v);
  t.FinishBulkAppend();
  const Table agg =
      HashAggregate(t, {"d"}, {{AggOp::kCount, nullptr, "cnt"}});
  // 0.0 and -0.0 compare equal and must merge; everything else is distinct
  // (1.0 vs nextafter(1.0), +-denorm_min, the huge magnitudes).
  ASSERT_EQ(agg.num_rows(), 7);
  std::map<double, int64_t> counts;
  for (int64_t r = 0; r < agg.num_rows(); ++r) {
    counts[agg.column("d").doubles()[static_cast<size_t>(r)]] =
        agg.column("cnt").ints()[static_cast<size_t>(r)];
  }
  EXPECT_EQ(counts.at(0.0), 2);
  EXPECT_EQ(counts.at(1.0), 1);
  EXPECT_EQ(counts.at(next1), 1);
}

TEST(DoubleKeyTest, JoinMatchesExactBits) {
  Table left({{"d", DataType::kFloat64}});
  Table right({{"rd", DataType::kFloat64}, {"tag", DataType::kInt64}});
  const double next1 = std::nextafter(1.0, 2.0);
  left.column(0).AppendDouble(1.0);
  left.column(0).AppendDouble(next1);
  left.column(0).AppendDouble(-0.0);
  left.FinishBulkAppend();
  right.column(0).AppendDouble(1.0);
  right.column(1).AppendInt(10);
  right.column(0).AppendDouble(0.0);
  right.column(1).AppendInt(20);
  right.FinishBulkAppend();
  const Table j = HashJoin(left, {"d"}, right, {"rd"});
  // 1.0 matches 1.0; nextafter(1.0) matches nothing; -0.0 matches 0.0.
  ASSERT_EQ(j.num_rows(), 2);
  std::vector<int64_t> tags = j.column("tag").ints();
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(tags, (std::vector<int64_t>{10, 20}));
}

// --- dictionary sidecar -----------------------------------------------------

TEST(DictionaryTest, EncodeRoundTrip) {
  Table t({{"s", DataType::kString}});
  const std::vector<std::string> values = {"b", "a", "b", "c", "a", "b"};
  for (const std::string& v : values) t.column(0).AppendString(v);
  t.FinishBulkAppend();
  ASSERT_TRUE(t.column(0).DictEncode());
  const Column& col = t.column(0);
  ASSERT_TRUE(col.has_dict());
  EXPECT_EQ(col.dict().size(), 3);  // first-occurrence order: b, a, c
  EXPECT_EQ(col.dict().value(0), "b");
  EXPECT_EQ(col.dict().value(1), "a");
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(col.dict().value(col.codes()[i]), values[i]);
    EXPECT_EQ(col.strings()[i], values[i]);
  }
}

TEST(DictionaryTest, HighCardinalityAbandoned) {
  Table t({{"s", DataType::kString}});
  for (int i = 0; i < 200; ++i) {
    t.column(0).AppendString("unique_" + std::to_string(i));
  }
  t.FinishBulkAppend();
  EXPECT_FALSE(t.column(0).DictEncode());
  EXPECT_FALSE(t.column(0).has_dict());
}

TEST(DictionaryTest, MutableStringAccessDropsDict) {
  Table t({{"s", DataType::kString}});
  t.column(0).AppendString("x");
  t.column(0).AppendString("x");
  t.FinishBulkAppend();
  ASSERT_TRUE(t.column(0).DictEncode());
  t.column(0).strings()[0] = "y";  // mutable access desyncs codes
  EXPECT_FALSE(t.column(0).has_dict());
  EXPECT_EQ(t.column(0).strings()[0], "y");
}

TEST(DictionaryTest, GatherAndFilterKeepDict) {
  Table t({{"s", DataType::kString}, {"v", DataType::kInt64}});
  for (int i = 0; i < 10; ++i) {
    t.column(0).AppendString(i % 2 == 0 ? "even" : "odd");
    t.column(1).AppendInt(i);
  }
  t.FinishBulkAppend();
  t.DictEncodeStringColumns();
  ASSERT_TRUE(t.column(0).has_dict());

  const Table g = t.GatherRows({1, 3, 5});
  ASSERT_TRUE(g.column(0).has_dict());
  EXPECT_EQ(g.column(0).dict_ptr(), t.column(0).dict_ptr());  // shared
  EXPECT_EQ(g.column(0).strings()[0], "odd");

  const Table f = Filter(t, Eq(Col("s"), Lit(std::string("even"))));
  EXPECT_EQ(f.num_rows(), 5);
  EXPECT_TRUE(f.column(0).has_dict());
}

TEST(DictionaryTest, StorageRoundTripSharesCodesAcrossChunks) {
  Table t({{"s", DataType::kString}, {"v", DataType::kInt64}});
  // 12 rows over 3 stripes of 4; "red" appears in every stripe.
  const std::vector<std::string> values = {"red",  "red",  "blue", "blue",
                                           "red",  "red",  "lime", "lime",
                                           "blue", "red",  "red",  "red"};
  for (size_t i = 0; i < values.size(); ++i) {
    t.column(0).AppendString(values[i]);
    t.column(1).AppendInt(static_cast<int64_t>(i));
  }
  t.FinishBulkAppend();
  StorageWriteOptions options;
  options.rows_per_stripe = 4;
  auto read = ReadTableFile(WriteTableFile(t, options));
  ASSERT_TRUE(read.ok());
  const Table& rt = read.value();
  ASSERT_EQ(rt.num_rows(), t.num_rows());
  const Column& col = rt.column(0);
  ASSERT_TRUE(col.has_dict());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(col.strings()[i], values[i]);
  }
  // Equal strings from different stripes share one code in the unioned
  // dictionary: rows 0 (stripe 0), 4 (stripe 1), and 9 (stripe 2).
  EXPECT_EQ(col.codes()[0], col.codes()[4]);
  EXPECT_EQ(col.codes()[0], col.codes()[9]);
  EXPECT_EQ(col.codes()[2], col.codes()[8]);
}

TEST(DictionaryTest, WriterFastPathIsByteIdentical) {
  // The same logical column must serialize identically whether or not it
  // carries the in-memory sidecar (the codes-based writer fast path).
  Table plain({{"s", DataType::kString}});
  Table dicted({{"s", DataType::kString}});
  for (int i = 0; i < 100; ++i) {
    // Append form: GCC 12 -O3 -Wrestrict false-positives on the
    // `"literal" + std::to_string(...)` operator+ chain.
    std::string v = "v";
    v += std::to_string(i % 7);
    plain.column(0).AppendString(v);
    dicted.column(0).AppendString(v);
  }
  plain.FinishBulkAppend();
  dicted.FinishBulkAppend();
  ASSERT_TRUE(dicted.column(0).DictEncode());
  StorageWriteOptions options;
  options.rows_per_stripe = 16;
  EXPECT_EQ(WriteTableFile(plain, options), WriteTableFile(dicted, options));
}

// --- flat hash table --------------------------------------------------------

TEST(FlatMapTest, GrowthAcrossResizeBoundaries) {
  FlatMap64 map;  // starts at minimum capacity
  const int64_t n = 10'000;
  for (int64_t i = 0; i < n; ++i) {
    bool inserted = false;
    EXPECT_EQ(map.FindOrInsert(static_cast<uint64_t>(i * 977), i, &inserted),
              i);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(map.size(), n);
  EXPECT_GT(map.resizes(), 5);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(map.Find(static_cast<uint64_t>(i * 977)), i);
  }
  EXPECT_EQ(map.Find(123'456'789ULL), -1);
  bool inserted = true;
  EXPECT_EQ(map.FindOrInsert(977, -0, &inserted), 1);  // pre-existing
  EXPECT_FALSE(inserted);
}

TEST(FlatMapTest, AggregateAcrossManyGroups) {
  // Enough distinct groups to force several flat-table resizes mid-build.
  std::vector<int64_t> keys;
  keys.reserve(30'000);
  for (int64_t i = 0; i < 30'000; ++i) keys.push_back(i % 10'000);
  const Table t = IntKeyed(keys);
  const Table agg =
      HashAggregate(t, {"k"}, {{AggOp::kCount, nullptr, "cnt"}});
  ASSERT_EQ(agg.num_rows(), 10'000);
  for (int64_t r = 0; r < agg.num_rows(); ++r) {
    EXPECT_EQ(agg.column("cnt").ints()[static_cast<size_t>(r)], 3);
    // Group output order is first-seen order of the keys.
    EXPECT_EQ(agg.column("k").ints()[static_cast<size_t>(r)], r);
  }
}

// --- packed keys vs fallback ------------------------------------------------

TEST(PackedKeyTest, WideIntKeysForceFallback) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  // Two full-range int64 key columns need 128 bits: cannot pack.
  Table left({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Table right({{"c", DataType::kInt64}, {"d", DataType::kInt64},
               {"tag", DataType::kInt64}});
  const std::vector<std::pair<int64_t, int64_t>> rows = {
      {lo, hi}, {hi, lo}, {0, 0}, {lo, lo}};
  for (const auto& [a, b] : rows) {
    left.column(0).AppendInt(a);
    left.column(1).AppendInt(b);
  }
  left.FinishBulkAppend();
  right.column(0).AppendInt(hi);
  right.column(1).AppendInt(lo);
  right.column(2).AppendInt(42);
  right.column(0).AppendInt(1);
  right.column(1).AppendInt(1);
  right.column(2).AppendInt(43);
  right.FinishBulkAppend();

  const int64_t fallbacks_before =
      ExecMetrics().key_fallback_activations.load();
  const Table j = HashJoin(left, {"a", "b"}, right, {"c", "d"});
  EXPECT_GT(ExecMetrics().key_fallback_activations.load(), fallbacks_before);
  ASSERT_EQ(j.num_rows(), 1);
  EXPECT_EQ(j.column("tag").ints()[0], 42);
  EXPECT_EQ(j.column("a").ints()[0], hi);
}

TEST(PackedKeyTest, PackedAndFallbackAgree) {
  // Same logical join once with dictionary-encoded string keys (packed) and
  // once with plain strings (fallback): identical results.
  auto build = [](bool encode) {
    Table left({{"k", DataType::kString}, {"lv", DataType::kInt64}});
    Table right({{"rk", DataType::kString}, {"rv", DataType::kInt64}});
    for (int i = 0; i < 60; ++i) {
      left.column(0).AppendString("key" + std::to_string(i % 5));
      left.column(1).AppendInt(i);
    }
    left.FinishBulkAppend();
    for (int i = 0; i < 9; ++i) {
      // Includes keys absent from the left and vice versa ("key7").
      right.column(0).AppendString("key" + std::to_string((i % 3) * 2 + 3));
      right.column(1).AppendInt(100 + i);
    }
    right.FinishBulkAppend();
    if (encode) {
      left.DictEncodeStringColumns();
      right.DictEncodeStringColumns();
    }
    return std::make_pair(std::move(left), std::move(right));
  };
  auto [pl, pr] = build(true);
  auto [fl, fr] = build(false);
  ASSERT_TRUE(pl.column(0).has_dict());
  ASSERT_TRUE(pr.column(0).has_dict());
  // Distinct dictionaries on the two sides: exercises the probe-side remap
  // (including the never-matches sentinel for left-only keys).
  EXPECT_NE(pl.column(0).dict_ptr(), pr.column(0).dict_ptr());
  for (const JoinType type :
       {JoinType::kInner, JoinType::kLeftOuter, JoinType::kLeftSemi,
        JoinType::kLeftAnti}) {
    const Table packed = HashJoin(pl, {"k"}, pr, {"rk"}, type);
    const Table fallback = HashJoin(fl, {"k"}, fr, {"rk"}, type);
    EXPECT_EQ(packed.ToString(10'000), fallback.ToString(10'000));
  }
}

TEST(PackedKeyTest, HeavyDuplicationPreservesBuildOrder) {
  // 3 left rows x 1000 duplicate build rows per key: chains must emit in
  // ascending build-row order, matching the row-at-a-time implementation.
  std::vector<int64_t> lkeys = {7, 8, 7};
  std::vector<int64_t> rkeys;
  for (int i = 0; i < 2000; ++i) rkeys.push_back(7 + (i % 2));
  const Table left = IntKeyed(lkeys, "k", "lv");
  const Table right = IntKeyed(rkeys, "rk", "rv");
  const Table j = HashJoin(left, {"k"}, right, {"rk"});
  ASSERT_EQ(j.num_rows(), 3000);
  // First block: left row 0 against ascending right rows 0,2,4,...
  EXPECT_EQ(j.column("rv").ints()[0], 0);
  EXPECT_EQ(j.column("rv").ints()[1], 2);
  EXPECT_EQ(j.column("rv").ints()[999], 1998);
  // Second block: left row 1 against right rows 1,3,5,...
  EXPECT_EQ(j.column("rv").ints()[1000], 1);
  const Table semi = HashJoin(left, {"k"}, right, {"rk"}, JoinType::kLeftSemi);
  EXPECT_EQ(semi.num_rows(), 3);
}

// --- aggregate edges --------------------------------------------------------

TEST(AggregateVectorizedTest, CountDistinctAndAvgEmptyInput) {
  Table empty({{"k", DataType::kInt64}, {"v", DataType::kInt64},
               {"s", DataType::kString}});
  empty.FinishBulkAppend();
  // Global aggregate over empty input: one row of zeros.
  const Table agg = HashAggregate(
      empty, {},
      {{AggOp::kCountDistinct, Col("v"), "dv"},
       {AggOp::kCountDistinct, Col("s"), "ds"},
       {AggOp::kAvg, Col("v"), "avg"}});
  ASSERT_EQ(agg.num_rows(), 1);
  EXPECT_EQ(agg.column("dv").ints()[0], 0);
  EXPECT_EQ(agg.column("ds").ints()[0], 0);
  EXPECT_DOUBLE_EQ(agg.column("avg").doubles()[0], 0.0);
  // Grouped aggregate over empty input: no rows.
  EXPECT_EQ(HashAggregate(empty, {"k"},
                          {{AggOp::kCountDistinct, Col("v"), "dv"}})
                .num_rows(),
            0);
}

TEST(AggregateVectorizedTest, CountDistinctAndAvgSingleRow) {
  Table t({{"k", DataType::kInt64}, {"v", DataType::kInt64},
           {"s", DataType::kString}});
  t.column(0).AppendInt(1);
  t.column(1).AppendInt(41);
  t.column(2).AppendString("only");
  t.FinishBulkAppend();
  const Table agg = HashAggregate(
      t, {"k"},
      {{AggOp::kCountDistinct, Col("v"), "dv"},
       {AggOp::kCountDistinct, Col("s"), "ds"},
       {AggOp::kAvg, Col("v"), "avg"},
       {AggOp::kMin, Col("v"), "mn"}});
  ASSERT_EQ(agg.num_rows(), 1);
  EXPECT_EQ(agg.column("dv").ints()[0], 1);
  EXPECT_EQ(agg.column("ds").ints()[0], 1);
  EXPECT_DOUBLE_EQ(agg.column("avg").doubles()[0], 41.0);
  EXPECT_EQ(agg.column("mn").ints()[0], 41);
}

/// `prefix` followed by `i` (append form: GCC 12 reports a false -Wrestrict
/// on `"literal" + std::string` chains).
std::string Numbered(const char* prefix, uint64_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

TEST(AggregateVectorizedTest, CountDistinctMatchesBruteForce) {
  Table t({{"g", DataType::kInt64},
           {"i", DataType::kInt64},
           {"ds", DataType::kString},
           {"ps", DataType::kString}});
  Rng rng(5);
  for (int r = 0; r < 3000; ++r) {
    t.column(0).AppendInt(rng.NextInt(0, 39));
    t.column(1).AppendInt(rng.NextInt(-12, 12));
    t.column(2).AppendString(Numbered("d", rng.NextBounded(12)));
    t.column(3).AppendString(Numbered("p", rng.NextBounded(30)));
  }
  t.FinishBulkAppend();
  ASSERT_TRUE(t.column(2).DictEncode());
  ASSERT_FALSE(t.column(3).has_dict());
  const std::vector<AggSpec> aggs = {
      {AggOp::kCountDistinct, Col("i"), "di"},
      {AggOp::kCountDistinct, Col("ds"), "dds"},
      {AggOp::kCountDistinct, Col("ps"), "dps"}};

  std::map<int64_t, std::set<int64_t>> ints;
  std::map<int64_t, std::set<std::string>> dict_strings, plain_strings;
  std::set<int64_t> all_ints;
  std::set<std::string> all_dict, all_plain;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    const int64_t g = t.column(0).ints()[i];
    ints[g].insert(t.column(1).ints()[i]);
    dict_strings[g].insert(t.column(2).strings()[i]);
    plain_strings[g].insert(t.column(3).strings()[i]);
    all_ints.insert(t.column(1).ints()[i]);
    all_dict.insert(t.column(2).strings()[i]);
    all_plain.insert(t.column(3).strings()[i]);
  }

  const Table grouped = HashAggregate(t, {"g"}, aggs);
  ASSERT_EQ(grouped.num_rows(), static_cast<int64_t>(ints.size()));
  for (int64_t r = 0; r < grouped.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    const int64_t g = grouped.column("g").ints()[i];
    EXPECT_EQ(grouped.column("di").ints()[i],
              static_cast<int64_t>(ints[g].size()));
    EXPECT_EQ(grouped.column("dds").ints()[i],
              static_cast<int64_t>(dict_strings[g].size()));
    EXPECT_EQ(grouped.column("dps").ints()[i],
              static_cast<int64_t>(plain_strings[g].size()));
  }

  const Table global = HashAggregate(t, {}, aggs);
  ASSERT_EQ(global.num_rows(), 1);
  EXPECT_EQ(global.column("di").ints()[0],
            static_cast<int64_t>(all_ints.size()));
  EXPECT_EQ(global.column("dds").ints()[0],
            static_cast<int64_t>(all_dict.size()));
  EXPECT_EQ(global.column("dps").ints()[0],
            static_cast<int64_t>(all_plain.size()));

  const Table empty = HashAggregate(t.Slice(0, 0), {}, aggs);
  ASSERT_EQ(empty.num_rows(), 1);
  EXPECT_EQ(empty.column("di").ints()[0], 0);
  EXPECT_EQ(empty.column("dds").ints()[0], 0);
  EXPECT_EQ(empty.column("dps").ints()[0], 0);
  EXPECT_EQ(HashAggregate(t.Slice(0, 0), {"g"}, aggs).num_rows(), 0);
}

TEST(AggregateVectorizedTest, CountDistinctDictionaryRepeatingAValue) {
  // Two codes for "a": the distinct count is over strings, not codes.
  Column s(DataType::kString);
  for (const char* v : {"a", "b", "a", "a"}) s.AppendString(v);
  s.AttachDictionary(std::make_shared<StringDictionary>(
                         std::vector<std::string>{"a", "b", "a"}),
                     {0, 1, 2, 0});
  Table t;
  t.AddColumn({"s", DataType::kString}, std::move(s));
  const Table agg =
      HashAggregate(t, {}, {{AggOp::kCountDistinct, Col("s"), "n"}});
  EXPECT_EQ(agg.column("n").ints()[0], 2);
}

// --- expression kernels against a row-at-a-time reference ------------------

/// An arithmetic operand: its expression and its value on every row.
struct RefOperand {
  ExprPtr expr;
  bool is_int;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  double AsDouble(size_t r) const {
    return is_int ? static_cast<double>(ints[r]) : doubles[r];
  }
};

Table KernelTable() {
  // Zeros in every column (division by zero), negatives, -0.0 and a
  // fraction so promotions and signed zeros show.
  Table t({{"i", DataType::kInt64},
           {"j", DataType::kInt64},
           {"x", DataType::kFloat64},
           {"y", DataType::kFloat64},
           {"c", DataType::kInt64},
           {"s", DataType::kString}});
  const int64_t is[] = {0, 1, -3, 7, 12, -1, 5, 0};
  const int64_t js[] = {2, 0, 4, -2, 0, 9, 5, -6};
  const double xs[] = {0.0, -0.0, 2.5, -7.25, 1e10, 3.0, 0.1, -1.0};
  const double ys[] = {0.0, 3.0, -0.0, 0.5, -2.0, 0.0, 0.3, 4.0};
  for (size_t r = 0; r < 8; ++r) {
    t.column(0).AppendInt(is[r]);
    t.column(1).AppendInt(js[r]);
    t.column(2).AppendDouble(xs[r]);
    t.column(3).AppendDouble(ys[r]);
    t.column(4).AppendInt(static_cast<int64_t>(r % 3 == 0));
    t.column(5).AppendString(Numbered("s", r));
  }
  t.FinishBulkAppend();
  return t;
}

std::vector<RefOperand> KernelOperands(const Table& t) {
  const size_t n = static_cast<size_t>(t.num_rows());
  std::vector<RefOperand> out;
  for (const char* name : {"i", "j"}) {
    out.push_back({Col(name), true, t.column(name).ints(), {}});
  }
  for (const char* name : {"x", "y"}) {
    out.push_back({Col(name), false, {}, t.column(name).doubles()});
  }
  for (const int64_t v : {int64_t{0}, int64_t{-4}}) {
    out.push_back({Lit(v), true, std::vector<int64_t>(n, v), {}});
  }
  for (const double v : {0.0, 2.5}) {
    out.push_back({Lit(v), false, {}, std::vector<double>(n, v)});
  }
  // A computed (non-borrowable) operand.
  std::vector<int64_t> sum(n);
  for (size_t r = 0; r < n; ++r) {
    sum[r] = t.column("i").ints()[r] + t.column("j").ints()[r];
  }
  out.push_back({Add(Col("i"), Col("j")), true, sum, {}});
  return out;
}

void ExpectSameBits(const std::vector<double>& want,
                    const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(std::bit_cast<uint64_t>(want[r]), std::bit_cast<uint64_t>(got[r]))
        << "row " << r << ": " << want[r] << " vs " << got[r];
  }
}

TEST(ExprKernelTest, ArithmeticMatchesRowAtATimeReference) {
  const Table t = KernelTable();
  const size_t n = static_cast<size_t>(t.num_rows());
  const std::vector<RefOperand> operands = KernelOperands(t);
  enum { kAdd, kSub, kMul, kDiv };
  ExprPtr (*const make[])(ExprPtr, ExprPtr) = {Add, Sub, Mul, Div};
  for (int op = kAdd; op <= kDiv; ++op) {
    for (size_t ia = 0; ia < operands.size(); ++ia) {
      for (size_t ib = 0; ib < operands.size(); ++ib) {
        SCOPED_TRACE(testing::Message()
                     << "op " << op << " operands " << ia << "," << ib);
        const RefOperand& a = operands[ia];
        const RefOperand& b = operands[ib];
        const Column got = make[op](a.expr, b.expr)->Eval(t);
        if (op != kDiv && a.is_int && b.is_int) {
          ASSERT_EQ(got.type(), DataType::kInt64);
          for (size_t r = 0; r < n; ++r) {
            const int64_t x = a.ints[r];
            const int64_t y = b.ints[r];
            const int64_t want =
                op == kAdd ? x + y : (op == kSub ? x - y : x * y);
            EXPECT_EQ(got.ints()[r], want) << "row " << r;
          }
          continue;
        }
        ASSERT_EQ(got.type(), DataType::kFloat64);
        std::vector<double> want(n);
        for (size_t r = 0; r < n; ++r) {
          const double x = a.AsDouble(r);
          const double y = b.AsDouble(r);
          switch (op) {
            case kAdd: want[r] = x + y; break;
            case kSub: want[r] = x - y; break;
            case kMul: want[r] = x * y; break;
            default: want[r] = y == 0.0 ? 0.0 : x / y; break;
          }
        }
        ExpectSameBits(want, got.doubles());
      }
    }
  }
}

TEST(ExprKernelTest, IfYearSubstrMatchRowAtATimeReference) {
  const Table t = KernelTable();
  const size_t n = static_cast<size_t>(t.num_rows());
  const std::vector<RefOperand> operands = KernelOperands(t);
  const std::vector<int64_t>& cond = t.column("c").ints();
  for (size_t ia = 0; ia < operands.size(); ++ia) {
    for (size_t ib = 0; ib < operands.size(); ++ib) {
      SCOPED_TRACE(testing::Message() << "operands " << ia << "," << ib);
      const RefOperand& a = operands[ia];
      const RefOperand& b = operands[ib];
      const Column got = If(Col("c"), a.expr, b.expr)->Eval(t);
      if (a.is_int && b.is_int) {
        ASSERT_EQ(got.type(), DataType::kInt64);
        for (size_t r = 0; r < n; ++r) {
          EXPECT_EQ(got.ints()[r], cond[r] != 0 ? a.ints[r] : b.ints[r]);
        }
        continue;
      }
      ASSERT_EQ(got.type(), DataType::kFloat64);
      std::vector<double> want(n);
      for (size_t r = 0; r < n; ++r) {
        want[r] = cond[r] != 0 ? a.AsDouble(r) : b.AsDouble(r);
      }
      ExpectSameBits(want, got.doubles());
    }
  }
  // String branches: column/column, column/literal, literal/column, and a
  // computed condition.
  const std::vector<std::string>& s = t.column("s").strings();
  const Column cc = If(Col("c"), Col("s"), Col("s"))->Eval(t);
  EXPECT_EQ(cc.strings(), s);
  const Column cl =
      If(Gt(Col("i"), Lit(int64_t{0})), Col("s"), Lit("none"))->Eval(t);
  const Column lc = If(Col("c"), Lit("yes"), Col("s"))->Eval(t);
  for (size_t r = 0; r < n; ++r) {
    EXPECT_EQ(cl.strings()[r], t.column("i").ints()[r] > 0 ? s[r] : "none");
    EXPECT_EQ(lc.strings()[r], cond[r] != 0 ? "yes" : s[r]);
  }

  const Column years =
      Year(Add(Col("i"), Lit(DateFromCivil(1995, 12, 31))))->Eval(t);
  const Column prefixes = Substr(Col("s"), 1)->Eval(t);
  for (size_t r = 0; r < n; ++r) {
    const int64_t date = t.column("i").ints()[r] + DateFromCivil(1995, 12, 31);
    EXPECT_EQ(years.ints()[r], CivilFromDate(date).year);
    EXPECT_EQ(prefixes.strings()[r], s[r].substr(0, 1));
  }
}

// --- selection-vector filtering ---------------------------------------------

TEST(SelectionFilterTest, DictAwareStringPredicates) {
  Table t({{"s", DataType::kString}, {"v", DataType::kInt64}});
  const std::vector<std::string> values = {"apple", "banana", "apple",
                                           "cherry", "banana", "apple"};
  for (size_t i = 0; i < values.size(); ++i) {
    t.column(0).AppendString(values[i]);
    t.column(1).AppendInt(static_cast<int64_t>(i));
  }
  t.FinishBulkAppend();
  t.DictEncodeStringColumns();
  ASSERT_TRUE(t.column(0).has_dict());

  const int64_t dict_evals_before = ExecMetrics().dict_predicate_evals.load();
  EXPECT_EQ(Filter(t, Eq(Col("s"), Lit(std::string("apple")))).num_rows(), 3);
  EXPECT_EQ(Filter(t, Ne(Col("s"), Lit(std::string("apple")))).num_rows(), 3);
  EXPECT_EQ(Filter(t, InString(Col("s"), {"banana", "cherry"})).num_rows(),
            3);
  EXPECT_EQ(Filter(t, StrContains(Col("s"), "an")).num_rows(), 2);
  EXPECT_EQ(Filter(t, StrPrefix(Col("s"), "ch")).num_rows(), 1);
  EXPECT_GT(ExecMetrics().dict_predicate_evals.load(), dict_evals_before);

  // Conjunctions refine the selection; disjunctions/negations take the
  // mask path — both must agree with per-row evaluation.
  const Table mixed = Filter(
      t, And(Or(Eq(Col("s"), Lit(std::string("apple"))),
                Eq(Col("s"), Lit(std::string("cherry")))),
             Not(Lt(Col("v"), Lit(int64_t{2})))));
  ASSERT_EQ(mixed.num_rows(), 3);
  EXPECT_EQ(mixed.column("v").ints(), (std::vector<int64_t>{2, 3, 5}));
}

TEST(ExecMetricsTest, CountersPublishUnderExecPrefix) {
  ExecMetrics().Reset();
  // One packed join (flat build), one dictionary encode, one filter.
  const Table left = IntKeyed({1, 2, 3}, "k", "lv");
  const Table right = IntKeyed({2, 3, 4}, "rk", "rv");
  HashJoin(left, {"k"}, right, {"rk"});
  Table t({{"s", DataType::kString}});
  t.column(0).AppendString("a");
  t.column(0).AppendString("a");
  t.FinishBulkAppend();
  t.DictEncodeStringColumns();
  Filter(left, Gt(Col("k"), Lit(int64_t{1})));

  MetricsRegistry registry;
  PublishExecMetrics(registry);
  EXPECT_GE(registry.CounterValue("exec.flat_table.builds"), 1);
  EXPECT_GE(registry.CounterValue("exec.keys.packed"), 1);
  EXPECT_GE(registry.CounterValue("exec.dict.columns_encoded"), 1);
  EXPECT_GE(registry.CounterValue("exec.dict.total_entries"), 1);
  EXPECT_GE(registry.CounterValue("exec.filter.selection_vectors"), 1);
  EXPECT_GE(registry.CounterValue("exec.gather.rows"), 1);
  EXPECT_EQ(registry.CounterValue("exec.keys.fallback"), 0);
}

TEST(SelectionFilterTest, NumericRefinement) {
  Table t({{"a", DataType::kInt64}, {"b", DataType::kFloat64}});
  for (int i = 0; i < 100; ++i) {
    t.column(0).AppendInt(i);
    t.column(1).AppendDouble(i * 0.5);
  }
  t.FinishBulkAppend();
  const Table f = Filter(t, And(Ge(Col("a"), Lit(int64_t{10})),
                                Lt(Col("b"), Lit(10.0))));
  ASSERT_EQ(f.num_rows(), 10);  // a in [10, 19]
  EXPECT_EQ(f.column("a").ints()[0], 10);
  EXPECT_EQ(f.column("a").ints()[9], 19);
}

}  // namespace
}  // namespace cackle::exec
