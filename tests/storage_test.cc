#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "exec/datagen.h"
#include "exec/operators.h"
#include "exec/storage.h"

namespace cackle::exec {
namespace {

Table MixedTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  Table t({{"id", DataType::kInt64},
           {"bucket", DataType::kInt64},
           {"value", DataType::kFloat64},
           {"tag", DataType::kString},
           {"text", DataType::kString}});
  for (int64_t r = 0; r < rows; ++r) {
    t.column(0).AppendInt(r);                             // delta-friendly
    t.column(1).AppendInt(rng.NextInt(0, 4));             // rle/dict-friendly
    t.column(2).AppendDouble(rng.NextDouble(-100, 100));
    t.column(3).AppendString("tag" + std::to_string(rng.NextInt(0, 3)));
    t.column(4).AppendString("unique-" + std::to_string(rng.NextUint64()));
  }
  t.FinishBulkAppend();
  return t;
}

void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column_def(c).name, b.column_def(c).name);
    ASSERT_EQ(a.column_def(c).type, b.column_def(c).type);
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.column(c).ValueToString(r), b.column(c).ValueToString(r))
          << "col " << a.column_def(c).name << " row " << r;
    }
  }
}

TEST(StorageTest, RoundTripsMixedTable) {
  const Table t = MixedTable(1000, 1);
  const std::string bytes = WriteTableFile(t, {.rows_per_stripe = 128});
  auto read = ReadTableFile(bytes);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameTable(t, *read);
}

TEST(StorageTest, RoundTripsEmptyAndSingleRow) {
  Table t({{"x", DataType::kInt64}});
  t.FinishBulkAppend();
  auto empty = ReadTableFile(WriteTableFile(t));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_rows(), 0);
  t.column(0).AppendInt(42);
  t.FinishBulkAppend();
  auto one = ReadTableFile(WriteTableFile(t));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->column("x").ints()[0], 42);
}

TEST(StorageTest, EncodingsCompress) {
  // Sorted ids (delta), few distinct values (rle/dict) compress well below
  // plain encoding size.
  Table t({{"sorted", DataType::kInt64},
           {"constant", DataType::kInt64},
           {"dict", DataType::kString}});
  for (int64_t r = 0; r < 10'000; ++r) {
    t.column(0).AppendInt(r);
    t.column(1).AppendInt(7);
    t.column(2).AppendString(r % 2 == 0 ? "even" : "odd");
  }
  t.FinishBulkAppend();
  const std::string bytes = WriteTableFile(t);
  // Plain would be ~10k * (8 + 8 + 5) = 210 KB; encodings should land far
  // below.
  EXPECT_LT(bytes.size(), 80'000u);
  auto read = ReadTableFile(bytes);
  ASSERT_TRUE(read.ok());
  ExpectSameTable(t, *read);
}

TEST(StorageTest, InspectReportsMetadata) {
  const Table t = MixedTable(500, 2);
  const std::string bytes = WriteTableFile(t, {.rows_per_stripe = 100});
  auto info = InspectTableFile(bytes);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_rows, 500);
  EXPECT_EQ(info->num_stripes, 5);
  ASSERT_EQ(info->schema.size(), 5u);
  EXPECT_EQ(info->schema[3].name, "tag");
}

// Byte offset of the first stripe's row count in a WriteTableFile image:
// magic, version and column count (3 x u32), then per column a type byte
// and a varint-prefixed name (every name here is shorter than 128 bytes),
// then num_rows and rows_per_stripe (u64) and num_stripes (u32).
size_t FirstStripeOffset(const Table& t) {
  size_t offset = 12;
  for (const ColumnDef& def : t.schema()) offset += 2 + def.name.size();
  return offset + 8 + 8 + 4;
}

/// Overwrites `width` bytes at `offset` with `v`, little-endian.
void PutLittleEndian(std::string* bytes, size_t offset, uint64_t v,
                     int width) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>(v >> (8 * i));
  }
}

TEST(StorageTest, RejectsGarbage) {
  EXPECT_FALSE(ReadTableFile("not a table file").ok());
  EXPECT_FALSE(ReadTableFile("").ok());
  const Table t = MixedTable(50, 3);
  const std::string good = WriteTableFile(t);
  ASSERT_TRUE(ReadTableFile(good).ok());
  const size_t stripe = FirstStripeOffset(t);

  std::string bytes = good;
  bytes.resize(bytes.size() / 2);  // truncate
  EXPECT_FALSE(ReadTableFile(bytes).ok());

  // Flipped encoding byte: the first chunk belongs to the int64 "id"
  // column; neither a string encoding nor an unknown value may decode.
  for (const char enc : {'\x04', '\x7f'}) {
    bytes = good;
    bytes[stripe + 4] = enc;
    EXPECT_FALSE(ReadTableFile(bytes).ok()) << static_cast<int>(enc);
  }

  // Huge string-length varint (2^64 - 1) in place of the one-byte length
  // of the file's last value (the plain-encoded "text" column): the bounds
  // check must not wrap and accept it.
  const std::string& last = t.column(4).strings().back();
  bytes = good.substr(0, good.size() - last.size() - 1) +
          std::string(9, '\xff') + '\x01' + last;
  EXPECT_FALSE(ReadTableFile(bytes).ok());

  // Truncated file whose first stripe claims 0xFFFFFFFF rows: decoding
  // must stop at the end of the bytes, not append four billion values.
  bytes = good;
  for (size_t i = 0; i < 4; ++i) bytes[stripe + i] = '\xff';
  bytes.resize(stripe + 40);
  EXPECT_FALSE(ReadTableFile(bytes).ok());

  // Stripe row counts must fit the header: a stripe is at most
  // rows_per_stripe rows and at most the rows still left, the stripes add up
  // to num_rows, and rows_per_stripe itself is at most kMaxRowsPerStripe.
  // The file is one run-length int64 column of 50 sevens in one stripe:
  // header fields num_rows at 15, rows_per_stripe at 23, stripe rows at 35,
  // the chunk's run-length payload (varint run, zigzag value) at 64.
  Table rle({{"c", DataType::kInt64}});
  for (int i = 0; i < 50; ++i) rle.column(0).AppendInt(7);
  rle.FinishBulkAppend();
  const std::string rle_good = WriteTableFile(rle);
  ASSERT_TRUE(ReadTableFile(rle_good).ok());
  const size_t rle_stripe = FirstStripeOffset(rle);
  ASSERT_EQ(rle_stripe, 35u);
  ASSERT_EQ(rle_good.size(), rle_stripe + 29 + 2);
  ASSERT_EQ(rle_good[rle_stripe + 4], '\x01');  // kInt64Rle
  ASSERT_EQ(rle_good.substr(rle_stripe + 29), std::string("\x32\x0e", 2));

  // Six bytes of run-length data claiming 2^32 - 1 rows in a stripe that
  // says the same: must be refused before anything is decoded.
  bytes = rle_good.substr(0, rle_stripe + 29);
  PutLittleEndian(&bytes, rle_stripe, 0xffffffffULL, 4);
  bytes += std::string("\xff\xff\xff\xff\x0f\x0e", 6);
  EXPECT_FALSE(ReadTableFile(bytes).ok());

  // 60 rows in the stripe (and in its run) of a 50-row file: within
  // rows_per_stripe, but past the rows left.
  bytes = rle_good;
  PutLittleEndian(&bytes, rle_stripe, 60, 4);
  bytes[rle_stripe + 29] = '\x3c';
  EXPECT_FALSE(ReadTableFile(bytes).ok());

  // The header claims 60 rows, the one stripe holds 50.
  bytes = rle_good;
  PutLittleEndian(&bytes, 15, 60, 8);
  EXPECT_FALSE(ReadTableFile(bytes).ok());
  EXPECT_FALSE(ScanTableFile(bytes, {"c"}, {}).ok());

  // rows_per_stripe above the format's limit, and zero.
  for (const uint64_t rows_per_stripe :
       {static_cast<uint64_t>(kMaxRowsPerStripe) + 1, uint64_t{0}}) {
    bytes = rle_good;
    PutLittleEndian(&bytes, 23, rows_per_stripe, 8);
    EXPECT_FALSE(ReadTableFile(bytes).ok()) << rows_per_stripe;
    EXPECT_FALSE(InspectTableFile(bytes).ok()) << rows_per_stripe;
  }
  // At the limit the file still reads.
  bytes = rle_good;
  PutLittleEndian(&bytes, 23, static_cast<uint64_t>(kMaxRowsPerStripe), 8);
  EXPECT_TRUE(ReadTableFile(bytes).ok());
}

TEST(StorageTest, ProjectionPushdownDecodesOnlyRequested) {
  const Table t = MixedTable(2000, 4);
  const std::string bytes = WriteTableFile(t, {.rows_per_stripe = 256});
  auto all = ScanTableFile(bytes, {}, {});
  ASSERT_TRUE(all.ok());
  auto two = ScanTableFile(bytes, {"id", "value"}, {});
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->table.num_columns(), 2);
  EXPECT_EQ(two->table.num_rows(), 2000);
  EXPECT_LT(two->bytes_decoded, all->bytes_decoded / 2);
}

TEST(StorageTest, PredicatePushdownSkipsStripes) {
  // Sorted ids: a narrow range should touch ~1 stripe out of 20.
  Table t({{"id", DataType::kInt64}, {"v", DataType::kFloat64}});
  for (int64_t r = 0; r < 2000; ++r) {
    t.column(0).AppendInt(r);
    t.column(1).AppendDouble(static_cast<double>(r) * 0.5);
  }
  t.FinishBulkAppend();
  const std::string bytes = WriteTableFile(t, {.rows_per_stripe = 100});
  ColumnRange range;
  range.column = "id";
  range.lo = 450;
  range.hi = 500;
  auto scan = ScanTableFile(bytes, {"id", "v"}, {range});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->stripes_total, 20);
  EXPECT_GE(scan->stripes_skipped, 17);
  // Exact results regardless of skipping.
  EXPECT_EQ(scan->table.num_rows(), 51);
  EXPECT_EQ(scan->table.column("id").ints().front(), 450);
  EXPECT_EQ(scan->table.column("id").ints().back(), 500);
}

TEST(StorageTest, StringEqualityPushdown) {
  // Clustered string column: equality on a value outside a stripe's
  // [min,max] skips it.
  Table t({{"grp", DataType::kString}, {"x", DataType::kInt64}});
  for (int64_t r = 0; r < 900; ++r) {
    t.column(0).AppendString(r < 300 ? "alpha" : (r < 600 ? "beta" : "gamma"));
    t.column(1).AppendInt(r);
  }
  t.FinishBulkAppend();
  const std::string bytes = WriteTableFile(t, {.rows_per_stripe = 300});
  ColumnRange range;
  range.column = "grp";
  range.equals = "beta";
  auto scan = ScanTableFile(bytes, {"x"}, {range});
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->stripes_skipped, 2);
  EXPECT_EQ(scan->table.num_rows(), 300);
  EXPECT_EQ(scan->table.num_columns(), 1);  // range column projected away
}

TEST(StorageTest, ScanMatchesFullTableFilter) {
  const Table t = MixedTable(3000, 5);
  const std::string bytes = WriteTableFile(t, {.rows_per_stripe = 200});
  ColumnRange range;
  range.column = "value";
  range.lo = -25.0;
  range.hi = 50.0;
  const ExprPtr residual = Eq(Col("bucket"), Lit(int64_t{2}));
  auto scan = ScanTableFile(bytes, {"id", "bucket", "value"}, {range},
                            residual);
  ASSERT_TRUE(scan.ok());
  const Table expected = SelectColumns(
      Filter(t, AllOf({Ge(Col("value"), Lit(-25.0)),
                       Le(Col("value"), Lit(50.0)),
                       Eq(Col("bucket"), Lit(int64_t{2}))})),
      {"id", "bucket", "value"});
  ExpectSameTable(expected, scan->table);
}

TEST(StorageTest, RoundTripsTpchLineitem) {
  const Catalog cat = GenerateTpch(0.002);
  const std::string bytes = WriteTableFile(cat.lineitem);
  auto read = ReadTableFile(bytes);
  ASSERT_TRUE(read.ok());
  ExpectSameTable(cat.lineitem, *read);
  // Columnar encodings beat the naive in-memory estimate.
  EXPECT_LT(static_cast<int64_t>(bytes.size()),
            cat.lineitem.EstimateBytes());
}

TEST(StorageTest, CatalogRoundTripPreservesQueryResults) {
  // A query over decode(encode(catalog)) equals the query over the
  // original — the storage layer is transparent to execution.
  const Catalog cat = GenerateTpch(0.002);
  const StoredCatalog stored = EncodeCatalog(cat);
  EXPECT_GT(stored.TotalBytes(), 0);
  auto decoded = DecodeCatalog(stored);
  ASSERT_TRUE(decoded.ok());
  ExpectSameTable(cat.lineitem, decoded->lineitem);
  ExpectSameTable(cat.part, decoded->part);
  ExpectSameTable(cat.orders, decoded->orders);
}

class StorageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageFuzzTest, RandomTablesRoundTrip) {
  Rng rng(GetParam());
  const int64_t rows = static_cast<int64_t>(rng.NextBounded(3000));
  Table t({{"a", DataType::kInt64},
           {"b", DataType::kFloat64},
           {"c", DataType::kString}});
  for (int64_t r = 0; r < rows; ++r) {
    // Mix of patterns: runs, jumps, negatives.
    t.column(0).AppendInt(rng.NextBernoulli(0.5)
                              ? rng.NextInt(-5, 5)
                              : rng.NextInt(-1'000'000'000, 1'000'000'000));
    t.column(1).AppendDouble(rng.NextGaussian() * 1e6);
    std::string s;
    const int64_t len = rng.NextInt(0, 20);
    for (int64_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.NextInt(32, 126)));
    }
    t.column(2).AppendString(s);
  }
  t.FinishBulkAppend();
  if (rows == 0) return;  // empty handled in a dedicated test
  const int64_t stripe = 1 + static_cast<int64_t>(rng.NextBounded(500));
  const std::string bytes = WriteTableFile(t, {.rows_per_stripe = stripe});
  auto read = ReadTableFile(bytes);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameTable(t, *read);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageFuzzTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

}  // namespace
}  // namespace cackle::exec
