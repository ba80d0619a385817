#ifndef CACKLE_EXEC_TABLE_H_
#define CACKLE_EXEC_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "exec/types.h"

namespace cackle::exec {

/// \brief An immutable, shared dictionary of distinct strings.
///
/// String columns may carry a dictionary sidecar: per-row `int32_t` codes
/// into a shared dictionary, alongside the materialized strings. Codes give
/// the executor fixed-width join/group keys (see operators.cc) without
/// changing what `strings()` returns. Code order is first-occurrence order,
/// so encoding is deterministic for a given value sequence.
class StringDictionary {
 public:
  explicit StringDictionary(std::vector<std::string> values);

  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  const std::string& value(int32_t code) const {
    return values_[static_cast<size_t>(code)];
  }
  const std::vector<std::string>& values() const { return values_; }
  /// Code of `s`, or -1 when absent.
  int32_t CodeOf(const std::string& s) const;

 private:
  std::vector<std::string> values_;
  std::unordered_map<std::string, int32_t> index_;
};

using DictPtr = std::shared_ptr<const StringDictionary>;

/// \brief A typed column of values. Only the vector matching `type` is
/// populated.
///
/// String columns may additionally carry a dictionary sidecar (`dict()` +
/// `codes()`); the invariant is `strings()[i] == dict().value(codes()[i])`
/// for every row. Mutable access to `strings()` (including AppendString)
/// drops the sidecar to keep the invariant trivially true; the bulk append
/// paths (AppendFrom / AppendRange / AppendGather) propagate it.
class Column {
 public:
  Column() : type_(DataType::kInt64) {}
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }

  int64_t size() const;
  void Reserve(int64_t n);

  // Typed access. The CHECKed accessors catch type confusion early.
  std::vector<int64_t>& ints() {
    CACKLE_CHECK(type_ == DataType::kInt64);
    return ints_;
  }
  const std::vector<int64_t>& ints() const {
    CACKLE_CHECK(type_ == DataType::kInt64);
    return ints_;
  }
  std::vector<double>& doubles() {
    CACKLE_CHECK(type_ == DataType::kFloat64);
    return doubles_;
  }
  const std::vector<double>& doubles() const {
    CACKLE_CHECK(type_ == DataType::kFloat64);
    return doubles_;
  }
  std::vector<std::string>& strings() {
    CACKLE_CHECK(type_ == DataType::kString);
    DropDictionary();  // mutable access may desync codes
    return strings_;
  }
  const std::vector<std::string>& strings() const {
    CACKLE_CHECK(type_ == DataType::kString);
    return strings_;
  }

  void AppendInt(int64_t v) { ints().push_back(v); }
  void AppendDouble(double v) { doubles().push_back(v); }
  void AppendString(std::string v) { strings().push_back(std::move(v)); }

  // --- dictionary sidecar ---------------------------------------------------

  bool has_dict() const { return dict_ != nullptr; }
  const StringDictionary& dict() const {
    CACKLE_CHECK(dict_ != nullptr);
    return *dict_;
  }
  const DictPtr& dict_ptr() const { return dict_; }
  const std::vector<int32_t>& codes() const {
    CACKLE_CHECK(dict_ != nullptr);
    return codes_;
  }

  /// Builds a dictionary over the current strings when the distinct count is
  /// small enough (`distinct <= max_dict_size` and `distinct*2 <= rows+64`).
  /// Returns true when a dictionary was attached.
  bool DictEncode(int64_t max_dict_size = 65535);

  /// Attaches an externally built dictionary (e.g. from the storage reader).
  /// `codes` must decode to the current strings (checked on size; spot-
  /// checked on content).
  void AttachDictionary(DictPtr dict, std::vector<int32_t> codes);

  void DropDictionary() {
    dict_.reset();
    codes_.clear();
  }

  // --- bulk append kernels --------------------------------------------------

  /// Appends row `row` of `other` (same type) to this column.
  void AppendFrom(const Column& other, int64_t row);

  /// Appends rows [begin, end) of `src` in one pass.
  void AppendRange(const Column& src, int64_t begin, int64_t end);

  /// Appends `src[rows[i]]` for each i, column-major in one pass. Adopts
  /// `src`'s dictionary when this column is empty.
  void AppendGather(const Column& src, const std::vector<int64_t>& rows);

  /// Like AppendGather but a row index of -1 appends the type's default
  /// (0 / 0.0 / ""). Used for left-outer null padding; never adopts a
  /// dictionary.
  void AppendGatherPadded(const Column& src, const std::vector<int64_t>& rows);

  /// Approximate in-memory size, used for shuffle and residency accounting.
  /// Includes the dictionary sidecar (codes + dictionary strings) when one
  /// is attached — the sidecar is resident memory like any other buffer.
  int64_t EstimateBytes() const;

  /// Renders row `row` for result printing / test comparison.
  std::string ValueToString(int64_t row) const;

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  // Dictionary sidecar (kString only): codes_[i] indexes dict_.
  DictPtr dict_;
  std::vector<int32_t> codes_;
};

/// \brief Column name + type.
struct ColumnDef {
  std::string name;
  DataType type;
};

/// \brief An in-memory columnar table (also used for intermediate batches).
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<ColumnDef> defs);

  /// A table with no columns and `num_rows` rows: the input of expressions
  /// that read no column (literals), which still take their row count from
  /// it.
  static Table RowsOnly(int64_t num_rows);

  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const std::vector<ColumnDef>& schema() const { return defs_; }
  const ColumnDef& column_def(int i) const {
    return defs_[static_cast<size_t>(i)];
  }

  /// Index of the column named `name`; aborts when absent.
  int ColumnIndex(std::string_view name) const;
  /// -1 when absent.
  int FindColumn(std::string_view name) const;

  Column& column(int i) { return columns_[static_cast<size_t>(i)]; }
  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  const Column& column(std::string_view name) const {
    return columns_[static_cast<size_t>(ColumnIndex(name))];
  }

  /// Adds a column; its size must equal num_rows (or define it when this is
  /// the first column).
  void AddColumn(ColumnDef def, Column column);

  /// Recomputes num_rows from column sizes after bulk appends; all columns
  /// must agree.
  void FinishBulkAppend();

  /// Appends row `row` of `other` (same schema) to this table.
  void AppendRowFrom(const Table& other, int64_t row);

  /// Rows [begin, end).
  Table Slice(int64_t begin, int64_t end) const;

  /// New table with rows `rows[0]`, `rows[1]`, ... copied column-major in
  /// one pass per column (the executor's materialization kernel).
  Table GatherRows(const std::vector<int64_t>& rows) const;

  /// Keeps the rows whose index is listed (in order). Alias of GatherRows.
  Table TakeRows(const std::vector<int64_t>& rows) const;

  /// Attempts to dictionary-encode every string column (see
  /// Column::DictEncode); used at datagen/load time.
  void DictEncodeStringColumns(int64_t max_dict_size = 65535);

  int64_t EstimateBytes() const;

  /// Renders the table (header + rows) for debugging and result checks;
  /// doubles rounded to `decimals`.
  std::string ToString(int64_t max_rows = 50) const;

 private:
  std::vector<ColumnDef> defs_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
};

/// Concatenates tables with identical schemas (empty input -> empty table).
/// String columns keep their dictionary when every input chunk carries one
/// (identical dictionaries are shared; differing ones are unioned in
/// first-occurrence order, re-coding rows as needed).
Table Concat(const std::vector<Table>& tables);

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_TABLE_H_
