#ifndef CACKLE_EXEC_STORAGE_H_
#define CACKLE_EXEC_STORAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/datagen.h"
#include "exec/expr.h"
#include "exec/table.h"

namespace cackle::exec {

/// \brief A columnar table file format in the spirit of ORC (Section 7.1.1:
/// base tables are stored in ORC in cloud storage and scanned in chunks).
///
/// Layout: a header (magic, schema), then stripes of `rows_per_stripe`
/// rows. Each stripe stores every column in an encoded chunk preceded by
/// min/max statistics, enabling two scan-time optimizations:
///   - *projection pushdown*: only requested columns are decoded;
///   - *predicate pushdown*: stripes whose [min, max] range cannot satisfy
///     a conjunctive range predicate are skipped without decoding.
///
/// Encodings (chosen per chunk by size): int64 columns use either plain
/// little-endian, delta-varint, or run-length; float64 plain; string
/// columns use dictionary encoding when the dictionary is small, plain
/// length-prefixed otherwise.
///
/// The format is self-contained bytes (store them in an ObjectStore, a
/// file, anywhere). It is not wire-compatible with real ORC — it
/// reproduces the *behaviour* the paper depends on: chunked columnar scans
/// from cloud storage with statistics-based skipping.

/// Largest `rows_per_stripe` the format allows. Readers reject a header
/// above it and any stripe longer than the header's `rows_per_stripe`, which
/// bounds the rows one stripe of a hostile file can decode.
inline constexpr int64_t kMaxRowsPerStripe = int64_t{1} << 20;

/// Options for writing.
struct StorageWriteOptions {
  int64_t rows_per_stripe = 4096;  // in (0, kMaxRowsPerStripe]
};

/// Serializes a table. Aborts on unwritable input (no columns, or
/// `rows_per_stripe` outside (0, kMaxRowsPerStripe]).
std::string WriteTableFile(const Table& table,
                           const StorageWriteOptions& options = {});

/// Reads back the full table.
[[nodiscard]] StatusOr<Table> ReadTableFile(const std::string& bytes);

/// \brief A simple conjunctive range predicate on one column, usable for
/// stripe skipping. For int64/float64 columns: value in [lo, hi]; for
/// strings: equality only.
struct ColumnRange {
  std::string column;
  // Numeric bounds (inclusive); use the numeric fields for int/double
  // columns and `equals` for strings.
  std::optional<double> lo;
  std::optional<double> hi;
  std::optional<std::string> equals;
};

/// Result of a pushed-down scan.
struct ScanFileResult {
  Table table;
  int64_t stripes_total = 0;
  int64_t stripes_skipped = 0;
  int64_t bytes_decoded = 0;
};

/// \brief Scans a table file with projection + predicate pushdown.
///
/// `columns` selects the output columns (empty = all). `ranges` are ANDed;
/// stripes provably outside any range are skipped via statistics. Rows in
/// surviving stripes are still filtered exactly, and `residual` (nullable)
/// is applied afterwards, so results match a full-table Filter.
[[nodiscard]] StatusOr<ScanFileResult> ScanTableFile(const std::string& bytes,
                                       const std::vector<std::string>& columns,
                                       const std::vector<ColumnRange>& ranges,
                                       const ExprPtr& residual = nullptr);

/// Per-file metadata (for tests and tooling).
struct TableFileInfo {
  int64_t num_rows = 0;
  int64_t num_stripes = 0;
  std::vector<ColumnDef> schema;
  int64_t file_bytes = 0;
};
[[nodiscard]] StatusOr<TableFileInfo> InspectTableFile(const std::string& bytes);

/// \brief A TPC-H catalog serialized to table files — the at-rest form the
/// paper keeps in cloud storage.
struct StoredCatalog {
  std::string region;
  std::string nation;
  std::string supplier;
  std::string part;
  std::string partsupp;
  std::string customer;
  std::string orders;
  std::string lineitem;

  int64_t TotalBytes() const {
    return static_cast<int64_t>(region.size() + nation.size() +
                                supplier.size() + part.size() +
                                partsupp.size() + customer.size() +
                                orders.size() + lineitem.size());
  }
};

/// Serializes / deserializes all eight base tables.
StoredCatalog EncodeCatalog(const Catalog& catalog,
                            const StorageWriteOptions& options = {});
[[nodiscard]] StatusOr<Catalog> DecodeCatalog(const StoredCatalog& stored);

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_STORAGE_H_
