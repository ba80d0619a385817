// Golden-result regression suite: every TPC-H query plan executed at
// SF 0.01 must reproduce the committed row counts and per-column checksums
// exactly. The checksums are order-independent aggregates (wrapping sums of
// integer values and FNV-1a string hashes; floating-point column sums
// compared with a relative epsilon), so they pin result *content* without
// being brittle about row order.
//
// To regenerate after an intentional semantics change:
//   CACKLE_REGEN_GOLDEN=1 ./golden_results_test
//       --gtest_filter=TpchGoldenResultsTest.AllQueriesMatchCommittedChecksums
// (one command line; split here only for width)
// and paste the printed block over the GoldenResults() literal below.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "exec/datagen.h"
#include "exec/plan.h"
#include "exec/tpch_queries.h"

#include "cloud/cost_model.h"
#include "engine/engine.h"
#include "workload/profile_library.h"
#include "workload/workload_generator.h"

namespace cackle::exec {
namespace {

const Catalog& TestCatalog() {
  static const Catalog* cat = new Catalog(GenerateTpch(0.01));
  return *cat;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct ColumnChecksum {
  std::string name;
  DataType type = DataType::kInt64;
  /// kInt64: wrapping sum of values; kString: wrapping sum of per-value
  /// FNV-1a hashes; kFloat64: 0 (the sum field carries the content).
  uint64_t hash = 0;
  /// kFloat64 only: sum of values in result-row order (single-threaded
  /// execution makes the summation order deterministic).
  double sum = 0.0;
};

struct QueryChecksum {
  int query_id = 0;
  int64_t rows = 0;
  std::vector<ColumnChecksum> columns;
};

QueryChecksum Checksum(int query_id, const Table& table) {
  QueryChecksum out;
  out.query_id = query_id;
  out.rows = table.num_rows();
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnChecksum col;
    col.name = table.column_def(c).name;
    col.type = table.column_def(c).type;
    switch (col.type) {
      case DataType::kInt64:
        for (const int64_t v : table.column(c).ints()) {
          col.hash += static_cast<uint64_t>(v);
        }
        break;
      case DataType::kString:
        for (const std::string& v : table.column(c).strings()) {
          col.hash += Fnv1a(v);
        }
        break;
      case DataType::kFloat64:
        for (const double v : table.column(c).doubles()) col.sum += v;
        break;
    }
    out.columns.push_back(std::move(col));
  }
  return out;
}

QueryChecksum Execute(int query_id) {
  PlanExecutor executor;  // single-threaded: deterministic double sums
  const Table result =
      executor.Execute(BuildTpchPlan(query_id, TestCatalog(), PlanConfig{3}));
  return Checksum(query_id, result);
}

const char* TypeLiteral(DataType type) {
  switch (type) {
    case DataType::kInt64: return "DataType::kInt64";
    case DataType::kFloat64: return "DataType::kFloat64";
    case DataType::kString: return "DataType::kString";
  }
  return "?";
}

void PrintRegenBlock(const std::vector<QueryChecksum>& all) {
  std::printf("// --- begin generated golden block ---\n");
  for (const QueryChecksum& q : all) {
    std::printf("      {%d, %lld, {\n", q.query_id,
                static_cast<long long>(q.rows));
    for (const ColumnChecksum& c : q.columns) {
      std::printf("          {\"%s\", %s, 0x%016llxULL, %.17g},\n",
                  c.name.c_str(), TypeLiteral(c.type),
                  static_cast<unsigned long long>(c.hash), c.sum);
    }
    std::printf("      }},\n");
  }
  std::printf("// --- end generated golden block ---\n");
}

/// Committed expected values for all TPC-H query plans at SF 0.01
/// (generated with the regen recipe in the file header).
const std::vector<QueryChecksum>& GoldenResults() {
  static const std::vector<QueryChecksum>* golden =
      new std::vector<QueryChecksum>{
      {1, 4, {
          {"l_returnflag", DataType::kString, 0x12f5d051cf35c977ULL, 0},
          {"l_linestatus", DataType::kString, 0x12f5be51cf35aae1ULL, 0},
          {"sum_qty", DataType::kFloat64, 0x0000000000000000ULL, 1547233},
          {"sum_base_price", DataType::kFloat64, 0x0000000000000000ULL, 2169760764.6699967},
          {"sum_disc_price", DataType::kFloat64, 0x0000000000000000ULL, 2061376322.6873951},
          {"sum_charge", DataType::kFloat64, 0x0000000000000000ULL, 2143694632.9391427},
          {"avg_qty", DataType::kFloat64, 0x0000000000000000ULL, 102.19503629154889},
          {"avg_price", DataType::kFloat64, 0x0000000000000000ULL, 143728.50828463983},
          {"avg_disc", DataType::kFloat64, 0x0000000000000000ULL, 0.19840350300928114},
          {"count_order", DataType::kInt64, 0x000000000000ec82ULL, 0},
      }},
      {2, 3, {
          {"s_acctbal", DataType::kFloat64, 0x0000000000000000ULL, 7090.4514598780988},
          {"s_name", DataType::kString, 0x0bd6ffb1374dbcfcULL, 0},
          {"n_name", DataType::kString, 0x3596f24be4445408ULL, 0},
          {"p_partkey", DataType::kInt64, 0x0000000000000ce0ULL, 0},
          {"p_mfgr", DataType::kString, 0xf87b7aa6d23757c4ULL, 0},
          {"s_address", DataType::kString, 0x74808f0943ef65d6ULL, 0},
          {"s_phone", DataType::kString, 0x130efd495aa2e39dULL, 0},
          {"s_comment", DataType::kString, 0xa7ed896431c3b7adULL, 0},
      }},
      {3, 10, {
          {"l_orderkey", DataType::kInt64, 0x00000000000550a9ULL, 0},
          {"o_orderdate", DataType::kInt64, 0x000000000001669bULL, 0},
          {"o_shippriority", DataType::kInt64, 0x0000000000000000ULL, 0},
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 2411950.3761},
      }},
      {4, 5, {
          {"o_orderpriority", DataType::kString, 0xc11b6ce76d31091eULL, 0},
          {"order_count", DataType::kInt64, 0x0000000000000242ULL, 0},
      }},
      {5, 5, {
          {"n_name", DataType::kString, 0x22ce746189b16159ULL, 0},
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 2532093.6125000003},
      }},
      {6, 1, {
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 1150346.9633000004},
      }},
      {7, 4, {
          {"supp_nation", DataType::kString, 0x9def707a27e983c8ULL, 0},
          {"cust_nation", DataType::kString, 0x9def707a27e983c8ULL, 0},
          {"l_year", DataType::kInt64, 0x0000000000001f2eULL, 0},
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 2849187.3594},
      }},
      {8, 2, {
          {"o_year", DataType::kInt64, 0x0000000000000f97ULL, 0},
          {"mkt_share", DataType::kFloat64, 0x0000000000000000ULL, 0},
      }},
      {9, 172, {
          {"n_name", DataType::kString, 0x9c16b76466e7f5b2ULL, 0},
          {"o_year", DataType::kInt64, 0x0000000000053c5fULL, 0},
          {"sum_profit", DataType::kFloat64, 0x0000000000000000ULL, 72374737.454575524},
      }},
      {10, 20, {
          {"c_custkey", DataType::kInt64, 0x0000000000003f0bULL, 0},
          {"c_name", DataType::kString, 0x09ee95154aac9e07ULL, 0},
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 6280814.7340999991},
          {"c_acctbal", DataType::kFloat64, 0x0000000000000000ULL, 93879.766575821428},
          {"n_name", DataType::kString, 0x32c38ec55586b836ULL, 0},
          {"c_address", DataType::kString, 0x73ccbb86c3dbe1a6ULL, 0},
          {"c_phone", DataType::kString, 0x4ab1647fc4b4d113ULL, 0},
          {"c_comment", DataType::kString, 0xb520c9230a9f8493ULL, 0},
      }},
      {11, 299, {
          {"ps_partkey", DataType::kInt64, 0x00000000000494ffULL, 0},
          {"value", DataType::kFloat64, 0x0000000000000000ULL, 728224318.6999017},
      }},
      {12, 2, {
          {"l_shipmode", DataType::kString, 0xad73f13469542a85ULL, 0},
          {"high_line_count", DataType::kInt64, 0x000000000000006eULL, 0},
          {"low_line_count", DataType::kInt64, 0x00000000000000c3ULL, 0},
      }},
      {13, 24, {
          {"c_count", DataType::kInt64, 0x0000000000000170ULL, 0},
          {"custdist", DataType::kInt64, 0x00000000000005dcULL, 0},
      }},
      {14, 1, {
          {"promo_revenue", DataType::kFloat64, 0x0000000000000000ULL, 18.265332604323188},
      }},
      {15, 1, {
          {"s_suppkey", DataType::kInt64, 0x0000000000000008ULL, 0},
          {"s_name", DataType::kString, 0x03f1799067c41574ULL, 0},
          {"s_address", DataType::kString, 0x593b0af10ba6a2a5ULL, 0},
          {"s_phone", DataType::kString, 0xd2e0aa2eae2e5070ULL, 0},
          {"total_revenue", DataType::kFloat64, 0x0000000000000000ULL, 1365458.8482000001},
      }},
      {16, 298, {
          {"p_brand", DataType::kString, 0x05ca2e640b61544bULL, 0},
          {"p_type", DataType::kString, 0x32ebc472bae23aadULL, 0},
          {"p_size", DataType::kInt64, 0x0000000000001b52ULL, 0},
          {"supplier_cnt", DataType::kInt64, 0x00000000000004aeULL, 0},
      }},
      {17, 1, {
          {"avg_yearly", DataType::kFloat64, 0x0000000000000000ULL, 7303.0628571428579},
      }},
      {18, 100, {
          {"c_name", DataType::kString, 0x344170582ea8e89cULL, 0},
          {"c_custkey", DataType::kInt64, 0x0000000000011b13ULL, 0},
          {"o_orderkey", DataType::kInt64, 0x000000000030f25eULL, 0},
          {"o_orderdate", DataType::kInt64, 0x00000000000df37dULL, 0},
          {"o_totalprice", DataType::kFloat64, 0x0000000000000000ULL, 37523658.134704977},
          {"sum_qty", DataType::kFloat64, 0x0000000000000000ULL, 24741},
      }},
      {19, 1, {
          {"revenue", DataType::kFloat64, 0x0000000000000000ULL, 12197.636},
      }},
      {20, 4, {
          {"s_name", DataType::kString, 0x0facf6419efa2c1fULL, 0},
          {"s_address", DataType::kString, 0x385e4e7360a7b4d7ULL, 0},
      }},
      {21, 4, {
          {"s_name", DataType::kString, 0x0fcf75419f17ea52ULL, 0},
          {"numwait", DataType::kInt64, 0x0000000000000025ULL, 0},
      }},
      {22, 7, {
          {"cntrycode", DataType::kString, 0x3d292e0568a19c4dULL, 0},
          {"numcust", DataType::kInt64, 0x0000000000000042ULL, 0},
          {"totacctbal", DataType::kFloat64, 0x0000000000000000ULL, 479454.4946444332},
      }},
      {23, 1, {
          {"repeat_revenue", DataType::kFloat64, 0x0000000000000000ULL, 135710596.393933},
          {"repeat_orders", DataType::kInt64, 0x00000000000003b4ULL, 0},
      }},
      {24, 25, {
          {"p_brand", DataType::kString, 0x5c5be330c4c7e827ULL, 0},
          {"rev_a", DataType::kFloat64, 0x0000000000000000ULL, 51642358.263599992},
          {"rev_b", DataType::kFloat64, 0x0000000000000000ULL, 58968955.36339999},
          {"rev_c", DataType::kFloat64, 0x0000000000000000ULL, 56272188.864599995},
          {"avg_window_revenue", DataType::kFloat64, 0x0000000000000000ULL, 55627834.163866661},
      }},
      {25, 175, {
          {"n_name", DataType::kString, 0x53dabb6c8bd26749ULL, 0},
          {"o_year", DataType::kInt64, 0x00000000000553c5ULL, 0},
          {"total_margin", DataType::kFloat64, 0x0000000000000000ULL, 1291235912.4802487},
          {"line_count", DataType::kInt64, 0x000000000000ec82ULL, 0},
      }},
      };
  return *golden;
}

TEST(TpchGoldenResultsTest, AllQueriesMatchCommittedChecksums) {
  if (std::getenv("CACKLE_REGEN_GOLDEN") != nullptr) {
    std::vector<QueryChecksum> all;
    for (const int id : AllTpchQueryIds()) all.push_back(Execute(id));
    PrintRegenBlock(all);
    GTEST_SKIP() << "regeneration mode: golden block printed";
  }
  const std::vector<QueryChecksum>& golden = GoldenResults();
  ASSERT_EQ(golden.size(), AllTpchQueryIds().size())
      << "golden table out of date: regenerate (see file header)";
  for (const QueryChecksum& expected : golden) {
    SCOPED_TRACE(testing::Message() << "query " << expected.query_id);
    const QueryChecksum actual = Execute(expected.query_id);
    EXPECT_EQ(actual.rows, expected.rows);
    ASSERT_EQ(actual.columns.size(), expected.columns.size());
    for (size_t c = 0; c < actual.columns.size(); ++c) {
      SCOPED_TRACE(testing::Message() << "column " << expected.columns[c].name);
      EXPECT_EQ(actual.columns[c].name, expected.columns[c].name);
      EXPECT_EQ(actual.columns[c].type, expected.columns[c].type);
      EXPECT_EQ(actual.columns[c].hash, expected.columns[c].hash);
      if (actual.columns[c].type == DataType::kFloat64) {
        const double want = expected.columns[c].sum;
        EXPECT_NEAR(actual.columns[c].sum, want,
                    1e-9 * (1.0 + std::abs(want)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: pooled execution promises BIT-identical results to serial —
// task outputs land in per-index slots and merges walk fixed index order, so
// even double summation order matches. Checksums are therefore compared with
// EXPECT_EQ, no epsilon.
// ---------------------------------------------------------------------------

void ExpectChecksumsBitIdentical(const QueryChecksum& a,
                                 const QueryChecksum& b) {
  EXPECT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "column " << a.columns[c].name);
    EXPECT_EQ(a.columns[c].name, b.columns[c].name);
    EXPECT_EQ(a.columns[c].type, b.columns[c].type);
    EXPECT_EQ(a.columns[c].hash, b.columns[c].hash);
    EXPECT_EQ(a.columns[c].sum, b.columns[c].sum);  // exact, not NEAR
  }
}

TEST(TpchGoldenResultsTest, PooledExecutionIsBitIdenticalToSerial) {
  PlanExecutor serial;  // 1 thread, index order
  for (const int threads : {4, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    PlanExecutor pooled(threads);
    for (const int id : AllTpchQueryIds()) {
      SCOPED_TRACE(testing::Message() << "query " << id);
      const StagePlan plan = BuildTpchPlan(id, TestCatalog(), PlanConfig{3});
      const QueryChecksum want = Checksum(id, serial.Execute(plan));
      ExpectChecksumsBitIdentical(want, Checksum(id, pooled.Execute(plan)));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: thread-pool execution must be equivalent to serial for every
// query. Rows are compared as sorted multisets so the check pins content,
// not an accidental row order.
// ---------------------------------------------------------------------------

using Cell = std::variant<int64_t, double, std::string>;

std::vector<std::vector<Cell>> SortedRows(const Table& table) {
  std::vector<std::vector<Cell>> rows(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    auto& row = rows[static_cast<size_t>(r)];
    row.reserve(static_cast<size_t>(table.num_columns()));
    for (int c = 0; c < table.num_columns(); ++c) {
      switch (table.column_def(c).type) {
        case DataType::kInt64:
          row.emplace_back(table.column(c).ints()[static_cast<size_t>(r)]);
          break;
        case DataType::kFloat64:
          row.emplace_back(table.column(c).doubles()[static_cast<size_t>(r)]);
          break;
        case DataType::kString:
          row.emplace_back(table.column(c).strings()[static_cast<size_t>(r)]);
          break;
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class TpchThreadDifferentialTest : public ::testing::TestWithParam<int> {};

void ExpectSortedRowsNear(const std::vector<std::vector<Cell>>& rows_a,
                          const std::vector<std::vector<Cell>>& rows_b) {
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (size_t r = 0; r < rows_a.size(); ++r) {
    ASSERT_EQ(rows_a[r].size(), rows_b[r].size());
    for (size_t c = 0; c < rows_a[r].size(); ++c) {
      ASSERT_EQ(rows_a[r][c].index(), rows_b[r][c].index())
          << "row " << r << " col " << c;
      if (const double* x = std::get_if<double>(&rows_a[r][c])) {
        const double y = std::get<double>(rows_b[r][c]);
        ASSERT_NEAR(*x, y, 1e-9 * (1.0 + std::abs(*x)))
            << "row " << r << " col " << c;
      } else {
        ASSERT_EQ(rows_a[r][c], rows_b[r][c]) << "row " << r << " col " << c;
      }
    }
  }
}

TEST_P(TpchThreadDifferentialTest, SerialAndPooledAgree) {
  const Catalog& cat = TestCatalog();
  PlanExecutor serial(1);
  PlanExecutor pooled(4);
  const StagePlan plan = BuildTpchPlan(GetParam(), cat, PlanConfig{6});
  ExpectSortedRowsNear(SortedRows(serial.Execute(plan)),
                       SortedRows(pooled.Execute(plan)));
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchThreadDifferentialTest,
                         ::testing::ValuesIn(AllTpchQueryIds()));

// ---------------------------------------------------------------------------
// Engine-level scheduler golden fingerprints: a full engine run is hashed
// (every latency sample's bit pattern plus every counter) into one uint64,
// and the fingerprint must be identical under the binary-heap and
// radix-heap event schedulers for every covered workload. This is the
// golden-suite form of the scheduler bit-identity contract.
// ---------------------------------------------------------------------------

uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 1099511628211ULL;
}

uint64_t FingerprintResult(const EngineResult& r) {
  uint64_t h = 1469598103934665603ULL;
  for (const double s : r.latencies_s.samples()) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(s));
    std::memcpy(&bits, &s, sizeof(bits));
    h = HashMix(h, bits);
  }
  for (const double s : r.batch_latencies_s.samples()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof(bits));
    h = HashMix(h, bits);
  }
  uint64_t cost_bits = 0;
  const double cost = r.total_cost();
  std::memcpy(&cost_bits, &cost, sizeof(cost_bits));
  h = HashMix(h, cost_bits);
  h = HashMix(h, static_cast<uint64_t>(r.makespan_ms));
  h = HashMix(h, static_cast<uint64_t>(r.queries_completed));
  h = HashMix(h, static_cast<uint64_t>(r.tasks_on_vms));
  h = HashMix(h, static_cast<uint64_t>(r.tasks_on_elastic));
  h = HashMix(h, static_cast<uint64_t>(r.tasks_retried));
  h = HashMix(h, static_cast<uint64_t>(r.tasks_speculated));
  h = HashMix(h, static_cast<uint64_t>(r.vms_interrupted));
  h = HashMix(h, static_cast<uint64_t>(r.stages_reexecuted));
  h = HashMix(h, static_cast<uint64_t>(r.elastic_failures));
  h = HashMix(h, static_cast<uint64_t>(r.queries_shed));
  return h;
}

uint64_t EngineFingerprint(SimScheduler scheduler,
                           const WorkloadOptions& wl,
                           const EngineOptions& base) {
  static const ProfileLibrary* lib =
      new ProfileLibrary(ProfileLibrary::BuiltinTpch());
  static const CostModel* cost = new CostModel();
  WorkloadGenerator gen(lib);
  EngineOptions opts = base;
  opts.sim.scheduler = scheduler;
  CackleEngine engine(cost, opts);
  return FingerprintResult(engine.Run(gen.Generate(wl), *lib));
}

TEST(EngineSchedulerGoldenTest, FingerprintsBitIdenticalAcrossSchedulers) {
  struct Covered {
    const char* label;
    WorkloadOptions workload;
    EngineOptions engine;
  };
  std::vector<Covered> covered;
  {
    Covered plain;
    plain.label = "interactive";
    plain.workload.num_queries = 60;
    plain.workload.duration_ms = kMillisPerHour / 6;
    plain.workload.arrival_period_ms = kMillisPerHour / 18;
    plain.workload.seed = 4242;
    covered.push_back(plain);
  }
  {
    Covered faulty;
    faulty.label = "faulty_mixed";
    faulty.workload.num_queries = 60;
    faulty.workload.duration_ms = kMillisPerHour / 6;
    faulty.workload.arrival_period_ms = kMillisPerHour / 18;
    faulty.workload.batch_fraction = 0.25;
    faulty.workload.seed = 777;
    faulty.engine.spot_mean_lifetime_hours = 0.15;
    faulty.engine.faults.elastic_failure_rate = 0.01;
    faulty.engine.faults.elastic_straggler_rate = 0.02;
    faulty.engine.faults.elastic_straggler_slowdown = 3.0;
    covered.push_back(faulty);
  }
  for (const Covered& c : covered) {
    SCOPED_TRACE(c.label);
    const uint64_t heap =
        EngineFingerprint(SimScheduler::kBinaryHeap, c.workload, c.engine);
    const uint64_t radix =
        EngineFingerprint(SimScheduler::kRadixHeap, c.workload, c.engine);
    EXPECT_NE(heap, 1469598103934665603ULL) << "empty run fingerprint";
    EXPECT_EQ(heap, radix);
  }
}

}  // namespace
}  // namespace cackle::exec
