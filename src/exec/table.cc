#include "exec/table.h"

#include <sstream>

#include "common/table_printer.h"
#include "exec/exec_metrics.h"

namespace cackle::exec {

// --- StringDictionary -------------------------------------------------------

StringDictionary::StringDictionary(std::vector<std::string> values)
    : values_(std::move(values)) {
  index_.reserve(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    index_.try_emplace(values_[i], static_cast<int32_t>(i));
  }
}

int32_t StringDictionary::CodeOf(const std::string& s) const {
  const auto it = index_.find(s);
  return it == index_.end() ? -1 : it->second;
}

// --- Column -----------------------------------------------------------------

int64_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<int64_t>(ints_.size());
    case DataType::kFloat64:
      return static_cast<int64_t>(doubles_.size());
    case DataType::kString:
      return static_cast<int64_t>(strings_.size());
  }
  return 0;
}

void Column::Reserve(int64_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(static_cast<size_t>(n));
      break;
    case DataType::kFloat64:
      doubles_.reserve(static_cast<size_t>(n));
      break;
    case DataType::kString:
      strings_.reserve(static_cast<size_t>(n));
      if (dict_ != nullptr) codes_.reserve(static_cast<size_t>(n));
      break;
  }
}

bool Column::DictEncode(int64_t max_dict_size) {
  CACKLE_CHECK(type_ == DataType::kString);
  if (dict_ != nullptr) return true;
  const int64_t rows = static_cast<int64_t>(strings_.size());
  // Profitability rule: a dictionary pays when values repeat. The +64 slack
  // lets tiny tables (nation, region) encode even at distinct == rows, so
  // their keys stay packable after joins.
  std::unordered_map<std::string, int32_t> index;
  std::vector<int32_t> codes;
  codes.reserve(strings_.size());
  std::vector<std::string> values;
  for (const std::string& s : strings_) {
    auto [it, inserted] =
        index.try_emplace(s, static_cast<int32_t>(values.size()));
    if (inserted) {
      values.push_back(s);
      const int64_t distinct = static_cast<int64_t>(values.size());
      if (distinct > max_dict_size || distinct * 2 > rows + 64) {
        ExecMetrics().dict_encodes_abandoned.fetch_add(
            1, std::memory_order_relaxed);
        return false;
      }
    }
    codes.push_back(it->second);
  }
  dict_ = std::make_shared<StringDictionary>(std::move(values));
  codes_ = std::move(codes);
  ExecMetrics().dict_columns_encoded.fetch_add(1, std::memory_order_relaxed);
  ExecMetrics().dict_total_entries.fetch_add(dict_->size(),
                                             std::memory_order_relaxed);
  return true;
}

void Column::AttachDictionary(DictPtr dict, std::vector<int32_t> codes) {
  CACKLE_CHECK(type_ == DataType::kString);
  CACKLE_CHECK(dict != nullptr);
  CACKLE_CHECK_EQ(codes.size(), strings_.size());
  if (!codes.empty()) {
    // Spot-check the invariant on the first and last rows.
    CACKLE_CHECK(dict->value(codes.front()) == strings_.front());
    CACKLE_CHECK(dict->value(codes.back()) == strings_.back());
  }
  dict_ = std::move(dict);
  codes_ = std::move(codes);
}

void Column::AppendFrom(const Column& other, int64_t row) {
  CACKLE_CHECK(type_ == other.type_);
  const size_t r = static_cast<size_t>(row);
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(other.ints_[r]);
      break;
    case DataType::kFloat64:
      doubles_.push_back(other.doubles_[r]);
      break;
    case DataType::kString: {
      if (strings_.empty() && dict_ == nullptr && other.dict_ != nullptr) {
        dict_ = other.dict_;  // adopt on first append into an empty column
      }
      if (dict_ != nullptr) {
        if (dict_ == other.dict_) {
          codes_.push_back(other.codes_[r]);
        } else {
          DropDictionary();
        }
      }
      strings_.push_back(other.strings_[r]);
      break;
    }
  }
}

void Column::AppendRange(const Column& src, int64_t begin, int64_t end) {
  CACKLE_CHECK(type_ == src.type_);
  const size_t b = static_cast<size_t>(begin);
  const size_t e = static_cast<size_t>(end);
  switch (type_) {
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + b, src.ints_.begin() + e);
      break;
    case DataType::kFloat64:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + b,
                      src.doubles_.begin() + e);
      break;
    case DataType::kString: {
      if (strings_.empty() && dict_ == nullptr && src.dict_ != nullptr) {
        dict_ = src.dict_;
      }
      if (dict_ != nullptr) {
        if (dict_ == src.dict_) {
          codes_.insert(codes_.end(), src.codes_.begin() + b,
                        src.codes_.begin() + e);
        } else {
          DropDictionary();
        }
      }
      strings_.insert(strings_.end(), src.strings_.begin() + b,
                      src.strings_.begin() + e);
      break;
    }
  }
}

void Column::AppendGather(const Column& src, const std::vector<int64_t>& rows) {
  CACKLE_CHECK(type_ == src.type_);
  ExecMetrics().gather_rows.fetch_add(static_cast<int64_t>(rows.size()),
                                      std::memory_order_relaxed);
  switch (type_) {
    case DataType::kInt64: {
      const size_t base = ints_.size();
      ints_.resize(base + rows.size());
      int64_t* out = ints_.data() + base;
      const int64_t* in = src.ints_.data();
      for (size_t i = 0; i < rows.size(); ++i) {
        out[i] = in[static_cast<size_t>(rows[i])];
      }
      break;
    }
    case DataType::kFloat64: {
      const size_t base = doubles_.size();
      doubles_.resize(base + rows.size());
      double* out = doubles_.data() + base;
      const double* in = src.doubles_.data();
      for (size_t i = 0; i < rows.size(); ++i) {
        out[i] = in[static_cast<size_t>(rows[i])];
      }
      break;
    }
    case DataType::kString: {
      if (strings_.empty() && dict_ == nullptr && src.dict_ != nullptr) {
        dict_ = src.dict_;
      }
      if (dict_ != nullptr) {
        if (dict_ == src.dict_) {
          const size_t base = codes_.size();
          codes_.resize(base + rows.size());
          int32_t* out = codes_.data() + base;
          const int32_t* in = src.codes_.data();
          for (size_t i = 0; i < rows.size(); ++i) {
            out[i] = in[static_cast<size_t>(rows[i])];
          }
        } else {
          DropDictionary();
        }
      }
      strings_.reserve(strings_.size() + rows.size());
      for (const int64_t r : rows) {
        strings_.push_back(src.strings_[static_cast<size_t>(r)]);
      }
      break;
    }
  }
}

void Column::AppendGatherPadded(const Column& src,
                                const std::vector<int64_t>& rows) {
  CACKLE_CHECK(type_ == src.type_);
  ExecMetrics().gather_rows.fetch_add(static_cast<int64_t>(rows.size()),
                                      std::memory_order_relaxed);
  switch (type_) {
    case DataType::kInt64: {
      const size_t base = ints_.size();
      ints_.resize(base + rows.size());
      int64_t* out = ints_.data() + base;
      const int64_t* in = src.ints_.data();
      for (size_t i = 0; i < rows.size(); ++i) {
        out[i] = rows[i] >= 0 ? in[static_cast<size_t>(rows[i])] : 0;
      }
      break;
    }
    case DataType::kFloat64: {
      const size_t base = doubles_.size();
      doubles_.resize(base + rows.size());
      double* out = doubles_.data() + base;
      const double* in = src.doubles_.data();
      for (size_t i = 0; i < rows.size(); ++i) {
        out[i] = rows[i] >= 0 ? in[static_cast<size_t>(rows[i])] : 0.0;
      }
      break;
    }
    case DataType::kString: {
      DropDictionary();  // pad values may be absent from any dictionary
      strings_.reserve(strings_.size() + rows.size());
      for (const int64_t r : rows) {
        if (r >= 0) {
          strings_.push_back(src.strings_[static_cast<size_t>(r)]);
        } else {
          strings_.emplace_back();
        }
      }
      break;
    }
  }
}

int64_t Column::EstimateBytes() const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<int64_t>(ints_.size()) * 8;
    case DataType::kFloat64:
      return static_cast<int64_t>(doubles_.size()) * 8;
    case DataType::kString: {
      int64_t bytes = 0;
      for (const std::string& s : strings_) {
        bytes += 4 + static_cast<int64_t>(s.size());
      }
      if (dict_ != nullptr) {
        // The sidecar is real resident memory: 4 bytes/row of codes plus
        // the dictionary's own strings. Counting it keeps the executor's
        // peak-residency accounting honest now that operators report their
        // scratch (hash tables, emit buffers) the same way.
        bytes += static_cast<int64_t>(codes_.size()) * 4;
        for (const std::string& s : dict_->values()) {
          bytes += 4 + static_cast<int64_t>(s.size());
        }
      }
      return bytes;
    }
  }
  return 0;
}

std::string Column::ValueToString(int64_t row) const {
  const size_t r = static_cast<size_t>(row);
  switch (type_) {
    case DataType::kInt64:
      return std::to_string(ints_[r]);
    case DataType::kFloat64:
      return FormatDouble(doubles_[r], 4);
    case DataType::kString:
      return strings_[r];
  }
  return "";
}

// --- Table ------------------------------------------------------------------

Table::Table(std::vector<ColumnDef> defs) : defs_(std::move(defs)) {
  columns_.reserve(defs_.size());
  for (const ColumnDef& def : defs_) columns_.emplace_back(def.type);
}

Table Table::RowsOnly(int64_t num_rows) {
  CACKLE_CHECK_GE(num_rows, 0);
  Table out;
  out.num_rows_ = num_rows;
  return out;
}

int Table::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int Table::ColumnIndex(std::string_view name) const {
  const int i = FindColumn(name);
  CACKLE_CHECK_GE(i, 0) << "no column named " << name;
  return i;
}

void Table::AddColumn(ColumnDef def, Column column) {
  CACKLE_CHECK(def.type == column.type());
  if (!defs_.empty()) {
    CACKLE_CHECK_EQ(column.size(), num_rows_);
  } else {
    num_rows_ = column.size();
  }
  defs_.push_back(std::move(def));
  columns_.push_back(std::move(column));
}

void Table::FinishBulkAppend() {
  CACKLE_CHECK(!columns_.empty());
  num_rows_ = columns_[0].size();
  for (const Column& c : columns_) CACKLE_CHECK_EQ(c.size(), num_rows_);
}

void Table::AppendRowFrom(const Table& other, int64_t row) {
  CACKLE_CHECK_EQ(columns_.size(), other.columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendFrom(other.columns_[c], row);
  }
  ++num_rows_;
}

Table Table::Slice(int64_t begin, int64_t end) const {
  CACKLE_CHECK_GE(begin, 0);
  CACKLE_CHECK_LE(begin, end);
  CACKLE_CHECK_LE(end, num_rows_);
  Table out(defs_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c].AppendRange(columns_[c], begin, end);
  }
  out.num_rows_ = end - begin;
  return out;
}

Table Table::GatherRows(const std::vector<int64_t>& rows) const {
  Table out(defs_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c].AppendGather(columns_[c], rows);
  }
  out.num_rows_ = static_cast<int64_t>(rows.size());
  return out;
}

Table Table::TakeRows(const std::vector<int64_t>& rows) const {
  return GatherRows(rows);
}

void Table::DictEncodeStringColumns(int64_t max_dict_size) {
  for (Column& c : columns_) {
    if (c.type() == DataType::kString) c.DictEncode(max_dict_size);
  }
}

int64_t Table::EstimateBytes() const {
  int64_t bytes = 0;
  for (const Column& c : columns_) bytes += c.EstimateBytes();
  return bytes;
}

std::string Table::ToString(int64_t max_rows) const {
  std::vector<std::string> headers;
  headers.reserve(defs_.size());
  for (const ColumnDef& def : defs_) headers.push_back(def.name);
  TablePrinter printer(headers);
  const int64_t n = std::min(num_rows_, max_rows);
  for (int64_t r = 0; r < n; ++r) {
    printer.BeginRow();
    for (const Column& c : columns_) printer.AddCell(c.ValueToString(r));
  }
  std::ostringstream os;
  printer.PrintText(os);
  if (n < num_rows_) os << "... (" << num_rows_ - n << " more rows)\n";
  return os.str();
}

// --- Concat -----------------------------------------------------------------

namespace {

/// Concatenates string column `c` of `tables` into `out`, unioning
/// dictionaries when every non-empty chunk has one. The union keeps
/// first-occurrence order across inputs, so equal strings from different
/// chunks share one code.
void ConcatStringColumn(const std::vector<Table>& tables, int c, int64_t rows,
                        Column* out) {
  bool all_dict = true;
  const DictPtr* shared = nullptr;
  bool same_ptr = true;
  for (const Table& t : tables) {
    if (t.num_rows() == 0) continue;
    const Column& col = t.column(c);
    if (!col.has_dict()) {
      all_dict = false;
      break;
    }
    if (shared == nullptr) {
      shared = &col.dict_ptr();
    } else if (*shared != col.dict_ptr()) {
      same_ptr = false;
    }
  }
  if (!all_dict || shared == nullptr) {
    // Plain concatenation (also the empty-input case).
    std::vector<std::string>& outs = out->strings();
    outs.reserve(static_cast<size_t>(rows));
    for (const Table& t : tables) {
      const auto& src = t.column(c).strings();
      outs.insert(outs.end(), src.begin(), src.end());
    }
    return;
  }

  std::vector<int32_t> codes;
  codes.reserve(static_cast<size_t>(rows));
  DictPtr dict;
  if (same_ptr) {
    dict = *shared;
    for (const Table& t : tables) {
      if (t.num_rows() == 0) continue;
      const auto& src = t.column(c).codes();
      codes.insert(codes.end(), src.begin(), src.end());
    }
  } else {
    // Union the input dictionaries in first-occurrence order.
    std::vector<std::string> values;
    std::unordered_map<std::string, int32_t> index;
    for (const Table& t : tables) {
      if (t.num_rows() == 0) continue;
      const Column& col = t.column(c);
      std::vector<int32_t> remap;
      remap.reserve(static_cast<size_t>(col.dict().size()));
      for (const std::string& v : col.dict().values()) {
        auto [it, inserted] =
            index.try_emplace(v, static_cast<int32_t>(values.size()));
        if (inserted) values.push_back(v);
        remap.push_back(it->second);
      }
      for (const int32_t code : col.codes()) {
        codes.push_back(remap[static_cast<size_t>(code)]);
      }
    }
    dict = std::make_shared<StringDictionary>(std::move(values));
  }
  {
    std::vector<std::string>& outs = out->strings();
    outs.reserve(static_cast<size_t>(rows));
    for (const Table& t : tables) {
      const auto& src = t.column(c).strings();
      outs.insert(outs.end(), src.begin(), src.end());
    }
  }
  out->AttachDictionary(std::move(dict), std::move(codes));
}

}  // namespace

Table Concat(const std::vector<Table>& tables) {
  if (tables.empty()) return Table();
  int64_t rows = 0;
  for (const Table& t : tables) {
    CACKLE_CHECK_EQ(t.num_columns(), tables[0].num_columns());
    rows += t.num_rows();
  }
  Table out(tables[0].schema());
  if (out.num_columns() == 0) {
    for (const Table& t : tables) {
      for (int64_t r = 0; r < t.num_rows(); ++r) out.AppendRowFrom(t, r);
    }
    return out;
  }
  for (int c = 0; c < out.num_columns(); ++c) {
    Column& dst = out.column(c);
    if (dst.type() == DataType::kString) {
      ConcatStringColumn(tables, c, rows, &dst);
      continue;
    }
    dst.Reserve(rows);
    for (const Table& t : tables) {
      dst.AppendRange(t.column(c), 0, t.num_rows());
    }
  }
  if (out.num_columns() > 0) out.FinishBulkAppend();
  return out;
}

}  // namespace cackle::exec
