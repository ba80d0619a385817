#include "exec/storage.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/logging.h"
#include "exec/operators.h"

namespace cackle::exec {
namespace {

constexpr uint32_t kMagic = 0x434b4c46;  // "CKLF"
constexpr uint32_t kVersion = 1;

enum class Encoding : uint8_t {
  kInt64Plain = 0,
  kInt64Rle = 1,
  kInt64Delta = 2,
  kFloat64Plain = 3,
  kStringPlain = 4,
  kStringDict = 5,
};

// --- primitive writers/readers -------------------------------------------

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutString(std::string* out, const std::string& s) {
  PutVarint(out, s.size());
  out->append(s);
}

/// Bounds-checked sequential reader over the file bytes.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  size_t position() const { return pos_; }
  /// Unread bytes: an upper bound on how many more values any decode loop
  /// can produce, so untrusted counts never size an allocation beyond it.
  size_t remaining() const { return bytes_.size() - pos_; }

  uint8_t GetU8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint32_t GetU32() {
    if (!Require(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++])) << (8 * i);
    }
    return v;
  }
  uint64_t GetU64() {
    if (!Require(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++])) << (8 * i);
    }
    return v;
  }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetF64() {
    const uint64_t bits = GetU64();
    double v = 0;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  uint64_t GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (!Require(1) || shift > 63) {
        ok_ = false;
        return 0;
      }
      const uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }
  std::string GetString() {
    const uint64_t len = GetVarint();
    if (!Require(len)) return "";
    std::string s = bytes_.substr(pos_, len);
    pos_ += len;
    return s;
  }
  void Skip(uint64_t n) {
    if (Require(n)) pos_ += n;
  }

 private:
  /// Written as `n > size - pos` (pos never passes size) so a hostile
  /// length near 2^64 cannot wrap the bound.
  bool Require(uint64_t n) {
    if (!ok_ || n > bytes_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::string& bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- column chunk encoding -----------------------------------------------

std::string EncodeInt64Plain(const int64_t* v, int64_t n) {
  std::string out;
  out.reserve(static_cast<size_t>(n) * 8);
  for (int64_t i = 0; i < n; ++i) PutI64(&out, v[i]);
  return out;
}

std::string EncodeInt64Rle(const int64_t* v, int64_t n) {
  std::string out;
  int64_t i = 0;
  while (i < n) {
    int64_t run = 1;
    while (i + run < n && v[i + run] == v[i]) ++run;
    PutVarint(&out, static_cast<uint64_t>(run));
    PutVarint(&out, ZigZag(v[i]));
    i += run;
  }
  return out;
}

std::string EncodeInt64Delta(const int64_t* v, int64_t n) {
  std::string out;
  int64_t prev = 0;
  for (int64_t i = 0; i < n; ++i) {
    PutVarint(&out, ZigZag(v[i] - prev));
    prev = v[i];
  }
  return out;
}

void EncodeInt64Chunk(const std::vector<int64_t>& values, int64_t begin,
                      int64_t end, std::string* out) {
  const int64_t n = end - begin;
  const int64_t* v = values.data() + begin;
  int64_t mn = v[0];
  int64_t mx = v[0];
  for (int64_t i = 1; i < n; ++i) {
    mn = std::min(mn, v[i]);
    mx = std::max(mx, v[i]);
  }
  std::string plain = EncodeInt64Plain(v, n);
  std::string rle = EncodeInt64Rle(v, n);
  std::string delta = EncodeInt64Delta(v, n);
  Encoding enc = Encoding::kInt64Plain;
  const std::string* chosen = &plain;
  if (rle.size() < chosen->size()) {
    enc = Encoding::kInt64Rle;
    chosen = &rle;
  }
  if (delta.size() < chosen->size()) {
    enc = Encoding::kInt64Delta;
    chosen = &delta;
  }
  PutU8(out, static_cast<uint8_t>(enc));
  PutI64(out, mn);
  PutI64(out, mx);
  PutU64(out, chosen->size());
  out->append(*chosen);
}

void EncodeFloat64Chunk(const std::vector<double>& values, int64_t begin,
                        int64_t end, std::string* out) {
  const int64_t n = end - begin;
  double mn = values[static_cast<size_t>(begin)];
  double mx = mn;
  for (int64_t i = begin + 1; i < end; ++i) {
    mn = std::min(mn, values[static_cast<size_t>(i)]);
    mx = std::max(mx, values[static_cast<size_t>(i)]);
  }
  PutU8(out, static_cast<uint8_t>(Encoding::kFloat64Plain));
  PutF64(out, mn);
  PutF64(out, mx);
  PutU64(out, static_cast<uint64_t>(n) * 8);
  for (int64_t i = begin; i < end; ++i) {
    PutF64(out, values[static_cast<size_t>(i)]);
  }
}

void EncodeStringChunk(const std::vector<std::string>& values, int64_t begin,
                       int64_t end, std::string* out) {
  const int64_t n = end - begin;
  const std::string* mn = &values[static_cast<size_t>(begin)];
  const std::string* mx = mn;
  std::unordered_map<std::string, uint32_t> dict;
  for (int64_t i = begin; i < end; ++i) {
    const std::string& s = values[static_cast<size_t>(i)];
    if (s < *mn) mn = &s;
    if (s > *mx) mx = &s;
    dict.try_emplace(s, 0);
  }
  const bool use_dict = dict.size() * 2 <= static_cast<size_t>(n);
  std::string payload;
  if (use_dict) {
    // Assign dictionary codes in first-occurrence order for determinism.
    std::vector<const std::string*> entries;
    std::unordered_map<std::string, uint32_t> codes;
    for (int64_t i = begin; i < end; ++i) {
      const std::string& s = values[static_cast<size_t>(i)];
      auto [it, inserted] =
          codes.try_emplace(s, static_cast<uint32_t>(entries.size()));
      if (inserted) entries.push_back(&it->first);
    }
    PutVarint(&payload, entries.size());
    for (const std::string* e : entries) PutString(&payload, *e);
    for (int64_t i = begin; i < end; ++i) {
      PutVarint(&payload, codes.at(values[static_cast<size_t>(i)]));
    }
    PutU8(out, static_cast<uint8_t>(Encoding::kStringDict));
  } else {
    for (int64_t i = begin; i < end; ++i) {
      PutString(&payload, values[static_cast<size_t>(i)]);
    }
    PutU8(out, static_cast<uint8_t>(Encoding::kStringPlain));
  }
  PutString(out, *mn);
  PutString(out, *mx);
  PutU64(out, payload.size());
  out->append(payload);
}

/// Fast path for columns carrying a dictionary sidecar: per-chunk distinct
/// sets and first-occurrence codes come from the global codes (no string
/// hashing). Produces bytes identical to the string-based path above.
void EncodeStringChunkFromCodes(const Column& col, int64_t begin, int64_t end,
                                std::string* out) {
  const int64_t n = end - begin;
  const StringDictionary& dict = col.dict();
  const std::vector<int32_t>& codes = col.codes();
  // Global code -> chunk-local code, in first-occurrence order.
  std::vector<int32_t> local(static_cast<size_t>(dict.size()), -1);
  std::vector<int32_t> entries;  // local -> global
  for (int64_t i = begin; i < end; ++i) {
    const int32_t g = codes[static_cast<size_t>(i)];
    if (local[static_cast<size_t>(g)] < 0) {
      local[static_cast<size_t>(g)] = static_cast<int32_t>(entries.size());
      entries.push_back(g);
    }
  }
  const std::string* mn = &dict.value(entries[0]);
  const std::string* mx = mn;
  for (int32_t g : entries) {
    const std::string& s = dict.value(g);
    if (s < *mn) mn = &s;
    if (s > *mx) mx = &s;
  }
  const bool use_dict = entries.size() * 2 <= static_cast<size_t>(n);
  std::string payload;
  if (use_dict) {
    PutVarint(&payload, entries.size());
    for (int32_t g : entries) PutString(&payload, dict.value(g));
    for (int64_t i = begin; i < end; ++i) {
      PutVarint(&payload, static_cast<uint64_t>(local[static_cast<size_t>(
                              codes[static_cast<size_t>(i)])]));
    }
    PutU8(out, static_cast<uint8_t>(Encoding::kStringDict));
  } else {
    for (int64_t i = begin; i < end; ++i) {
      PutString(&payload, dict.value(codes[static_cast<size_t>(i)]));
    }
    PutU8(out, static_cast<uint8_t>(Encoding::kStringPlain));
  }
  PutString(out, *mn);
  PutString(out, *mx);
  PutU64(out, payload.size());
  out->append(payload);
}

// --- chunk decoding --------------------------------------------------------

struct ChunkStats {
  double num_min = 0;
  double num_max = 0;
  std::string str_min;
  std::string str_max;
};

/// True when the writer emits `enc` for columns of `type`. Anything else
/// (an unknown byte, or say kStringPlain on an int64 column) would decode
/// into the wrong column kind, so readers reject it up front.
bool EncodingMatchesType(Encoding enc, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return enc == Encoding::kInt64Plain || enc == Encoding::kInt64Rle ||
             enc == Encoding::kInt64Delta;
    case DataType::kFloat64:
      return enc == Encoding::kFloat64Plain;
    case DataType::kString:
      return enc == Encoding::kStringPlain || enc == Encoding::kStringDict;
  }
  return false;
}

/// Reads a chunk header; leaves the reader positioned at the payload.
/// Returns encoding + payload size via out-params.
Status ReadChunkHeader(ByteReader* reader, DataType type, Encoding* enc,
                       ChunkStats* stats, uint64_t* payload_size) {
  *enc = static_cast<Encoding>(reader->GetU8());
  if (reader->ok() && !EncodingMatchesType(*enc, type)) {
    return Status::InvalidArgument("chunk encoding does not match its column");
  }
  switch (type) {
    case DataType::kInt64: {
      stats->num_min = static_cast<double>(reader->GetI64());
      stats->num_max = static_cast<double>(reader->GetI64());
      break;
    }
    case DataType::kFloat64:
      stats->num_min = reader->GetF64();
      stats->num_max = reader->GetF64();
      break;
    case DataType::kString:
      stats->str_min = reader->GetString();
      stats->str_max = reader->GetString();
      break;
  }
  *payload_size = reader->GetU64();
  if (!reader->ok()) return Status::InvalidArgument("truncated chunk header");
  return Status::OK();
}

/// Decodes `rows` values of a chunk whose encoding already matches `type`.
/// Every loop stops as soon as the reader fails, so a truncated chunk with
/// a hostile row count costs no more than the bytes actually present.
Column DecodeChunk(ByteReader* reader, DataType type, Encoding enc,
                   int64_t rows) {
  Column col(type);
  switch (enc) {
    case Encoding::kInt64Plain:
      for (int64_t i = 0; i < rows && reader->ok(); ++i) {
        col.AppendInt(reader->GetI64());
      }
      break;
    case Encoding::kInt64Rle: {
      int64_t produced = 0;
      while (produced < rows && reader->ok()) {
        const int64_t run = static_cast<int64_t>(reader->GetVarint());
        const int64_t value = UnZigZag(reader->GetVarint());
        for (int64_t i = 0; i < run && produced < rows; ++i, ++produced) {
          col.AppendInt(value);
        }
      }
      break;
    }
    case Encoding::kInt64Delta: {
      int64_t prev = 0;
      for (int64_t i = 0; i < rows && reader->ok(); ++i) {
        // Wrapping add: a hostile delta must not overflow a signed value.
        prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                    static_cast<uint64_t>(
                                        UnZigZag(reader->GetVarint())));
        col.AppendInt(prev);
      }
      break;
    }
    case Encoding::kFloat64Plain:
      for (int64_t i = 0; i < rows && reader->ok(); ++i) {
        col.AppendDouble(reader->GetF64());
      }
      break;
    case Encoding::kStringPlain:
      for (int64_t i = 0; i < rows && reader->ok(); ++i) {
        col.AppendString(reader->GetString());
      }
      break;
    case Encoding::kStringDict: {
      // Every dictionary entry and code takes at least one byte, so the
      // unread byte count caps both reservations.
      const uint64_t dict_size = reader->GetVarint();
      std::vector<std::string> dict;
      dict.reserve(std::min<uint64_t>(dict_size, reader->remaining()));
      for (uint64_t i = 0; i < dict_size && reader->ok(); ++i) {
        dict.push_back(reader->GetString());
      }
      std::vector<int32_t> codes;
      codes.reserve(std::min<uint64_t>(static_cast<uint64_t>(rows),
                                       reader->remaining()));
      bool codes_valid = true;
      for (int64_t i = 0; i < rows && reader->ok(); ++i) {
        const uint64_t code = reader->GetVarint();
        if (code < dict.size()) {
          col.AppendString(dict[code]);
          codes.push_back(static_cast<int32_t>(code));
        } else {
          col.AppendString("");
          codes_valid = false;  // corrupt chunk: no sidecar
        }
      }
      // Keep the on-disk dictionary as the column's sidecar so downstream
      // joins/aggregates get fixed-width codes for free.
      if (codes_valid && !dict.empty()) {
        col.AttachDictionary(
            std::make_shared<StringDictionary>(std::move(dict)),
            std::move(codes));
      }
      break;
    }
  }
  return col;
}

bool RangeCanMatch(const ColumnRange& range, DataType type,
                   const ChunkStats& stats) {
  if (type == DataType::kString) {
    if (range.equals.has_value()) {
      return *range.equals >= stats.str_min && *range.equals <= stats.str_max;
    }
    return true;
  }
  if (range.lo.has_value() && stats.num_max < *range.lo) return false;
  if (range.hi.has_value() && stats.num_min > *range.hi) return false;
  return true;
}

/// Builds the exact row filter for the pushed-down ranges.
ExprPtr RangesToExpr(const std::vector<ColumnRange>& ranges,
                     const std::vector<ColumnDef>& schema) {
  ExprPtr filter;
  auto conjoin = [&filter](ExprPtr e) {
    filter = filter == nullptr ? std::move(e) : And(filter, std::move(e));
  };
  for (const ColumnRange& range : ranges) {
    DataType type = DataType::kInt64;
    for (const ColumnDef& def : schema) {
      if (def.name == range.column) type = def.type;
    }
    if (type == DataType::kString) {
      if (range.equals.has_value()) {
        conjoin(Eq(Col(range.column), Lit(*range.equals)));
      }
      continue;
    }
    if (range.lo.has_value()) {
      conjoin(type == DataType::kInt64
                  ? Ge(Col(range.column),
                       Lit(static_cast<int64_t>(std::ceil(*range.lo))))
                  : Ge(Col(range.column), Lit(*range.lo)));
    }
    if (range.hi.has_value()) {
      conjoin(type == DataType::kInt64
                  ? Le(Col(range.column),
                       Lit(static_cast<int64_t>(std::floor(*range.hi))))
                  : Le(Col(range.column), Lit(*range.hi)));
    }
  }
  return filter;
}

}  // namespace

std::string WriteTableFile(const Table& table,
                           const StorageWriteOptions& options) {
  CACKLE_CHECK_GT(table.num_columns(), 0);
  CACKLE_CHECK_GT(options.rows_per_stripe, 0);
  CACKLE_CHECK_LE(options.rows_per_stripe, kMaxRowsPerStripe);
  std::string out;
  PutU32(&out, kMagic);
  PutU32(&out, kVersion);
  PutU32(&out, static_cast<uint32_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    PutU8(&out, static_cast<uint8_t>(table.column_def(c).type));
    PutString(&out, table.column_def(c).name);
  }
  PutU64(&out, static_cast<uint64_t>(table.num_rows()));
  PutU64(&out, static_cast<uint64_t>(options.rows_per_stripe));
  const int64_t stripes =
      (table.num_rows() + options.rows_per_stripe - 1) /
      options.rows_per_stripe;
  PutU32(&out, static_cast<uint32_t>(stripes));
  for (int64_t s = 0; s < stripes; ++s) {
    const int64_t begin = s * options.rows_per_stripe;
    const int64_t end =
        std::min(table.num_rows(), begin + options.rows_per_stripe);
    PutU32(&out, static_cast<uint32_t>(end - begin));
    for (int c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      switch (col.type()) {
        case DataType::kInt64:
          EncodeInt64Chunk(col.ints(), begin, end, &out);
          break;
        case DataType::kFloat64:
          EncodeFloat64Chunk(col.doubles(), begin, end, &out);
          break;
        case DataType::kString:
          if (col.has_dict()) {
            EncodeStringChunkFromCodes(col, begin, end, &out);
          } else {
            EncodeStringChunk(col.strings(), begin, end, &out);
          }
          break;
      }
    }
  }
  return out;
}

namespace {

struct FileHeader {
  std::vector<ColumnDef> schema;
  int64_t num_rows = 0;
  int64_t rows_per_stripe = 0;
  int64_t num_stripes = 0;
};

Status ReadHeader(ByteReader* reader, FileHeader* header) {
  if (reader->GetU32() != kMagic) {
    return Status::InvalidArgument("not a cackle table file (bad magic)");
  }
  if (reader->GetU32() != kVersion) {
    return Status::InvalidArgument("unsupported table file version");
  }
  const uint32_t num_columns = reader->GetU32();
  if (num_columns == 0 || num_columns > 10'000) {
    return Status::InvalidArgument("implausible column count");
  }
  for (uint32_t c = 0; c < num_columns; ++c) {
    const uint8_t type = reader->GetU8();
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::InvalidArgument("unknown column type");
    }
    header->schema.push_back(
        ColumnDef{reader->GetString(), static_cast<DataType>(type)});
  }
  header->num_rows = static_cast<int64_t>(reader->GetU64());
  header->rows_per_stripe = static_cast<int64_t>(reader->GetU64());
  header->num_stripes = reader->GetU32();
  if (!reader->ok()) return Status::InvalidArgument("truncated header");
  if (header->num_rows < 0) {
    return Status::InvalidArgument("implausible row count");
  }
  if (header->rows_per_stripe <= 0 ||
      header->rows_per_stripe > kMaxRowsPerStripe) {
    return Status::InvalidArgument("rows_per_stripe out of range");
  }
  return Status::OK();
}

}  // namespace

StatusOr<TableFileInfo> InspectTableFile(const std::string& bytes) {
  ByteReader reader(bytes);
  FileHeader header;
  CACKLE_RETURN_IF_ERROR(ReadHeader(&reader, &header));
  TableFileInfo info;
  info.num_rows = header.num_rows;
  info.num_stripes = header.num_stripes;
  info.schema = header.schema;
  info.file_bytes = static_cast<int64_t>(bytes.size());
  return info;
}

StatusOr<Table> ReadTableFile(const std::string& bytes) {
  auto result = ScanTableFile(bytes, {}, {});
  if (!result.ok()) return result.status();
  return std::move(result.value().table);
}

StatusOr<ScanFileResult> ScanTableFile(const std::string& bytes,
                                       const std::vector<std::string>& columns,
                                       const std::vector<ColumnRange>& ranges,
                                       const ExprPtr& residual) {
  ByteReader reader(bytes);
  FileHeader header;
  CACKLE_RETURN_IF_ERROR(ReadHeader(&reader, &header));

  // Columns to decode: projection union range columns (empty = all).
  std::vector<bool> decode(header.schema.size(), columns.empty());
  auto mark = [&](const std::string& name) -> Status {
    for (size_t c = 0; c < header.schema.size(); ++c) {
      if (header.schema[c].name == name) {
        decode[c] = true;
        return Status::OK();
      }
    }
    return Status::NotFound("no column named " + name);
  };
  for (const std::string& name : columns) CACKLE_RETURN_IF_ERROR(mark(name));
  for (const ColumnRange& range : ranges) CACKLE_RETURN_IF_ERROR(mark(range.column));

  ScanFileResult result;
  result.stripes_total = header.num_stripes;
  std::vector<ColumnDef> decoded_schema;
  for (size_t c = 0; c < header.schema.size(); ++c) {
    if (decode[c]) decoded_schema.push_back(header.schema[c]);
  }
  std::vector<Table> stripe_tables;

  int64_t rows_seen = 0;
  for (int64_t s = 0; s < header.num_stripes; ++s) {
    const int64_t stripe_rows = reader.GetU32();
    if (!reader.ok()) return Status::InvalidArgument("truncated stripe");
    // Bound the stripe before decoding: a few bytes of run-length data
    // could otherwise expand to 2^32 values.
    if (stripe_rows > header.rows_per_stripe ||
        stripe_rows > header.num_rows - rows_seen) {
      return Status::InvalidArgument("stripe row count exceeds the header");
    }
    rows_seen += stripe_rows;
    // First pass over the stripe: headers + skip decision.
    Table stripe(decoded_schema);
    bool skip = false;
    std::vector<Column> cols;
    for (size_t c = 0; c < header.schema.size(); ++c) {
      Encoding enc;
      ChunkStats stats;
      uint64_t payload = 0;
      CACKLE_RETURN_IF_ERROR(ReadChunkHeader(&reader, header.schema[c].type,
                                             &enc, &stats, &payload));
      // Statistics-based skipping: if any pushed-down range cannot match
      // this chunk, the whole stripe is skipped.
      if (!skip) {
        for (const ColumnRange& range : ranges) {
          if (range.column == header.schema[c].name &&
              !RangeCanMatch(range, header.schema[c].type, stats)) {
            skip = true;
            break;
          }
        }
      }
      if (skip || !decode[c]) {
        reader.Skip(payload);
        cols.emplace_back(header.schema[c].type);
      } else {
        const size_t before = reader.position();
        cols.push_back(
            DecodeChunk(&reader, header.schema[c].type, enc, stripe_rows));
        result.bytes_decoded += static_cast<int64_t>(reader.position() - before);
        if (!reader.ok()) return Status::InvalidArgument("truncated chunk");
      }
    }
    if (skip) {
      ++result.stripes_skipped;
      continue;
    }
    Table decoded;
    for (size_t c = 0, out = 0; c < header.schema.size(); ++c) {
      if (decode[c]) {
        decoded.AddColumn(header.schema[c], std::move(cols[c]));
        ++out;
      }
    }
    // Exact filtering of surviving stripes.
    const ExprPtr range_filter = RangesToExpr(ranges, header.schema);
    if (range_filter != nullptr) decoded = Filter(decoded, range_filter);
    if (residual != nullptr) decoded = Filter(decoded, residual);
    stripe_tables.push_back(std::move(decoded));
  }

  if (rows_seen != header.num_rows) {
    return Status::InvalidArgument("stripes do not add up to the row count");
  }
  if (stripe_tables.empty()) {
    result.table = Table(decoded_schema);
  } else {
    result.table = Concat(stripe_tables);
  }
  // Project away range-only columns.
  if (!columns.empty()) {
    result.table = SelectColumns(result.table, columns);
  }
  return result;
}

}  // namespace cackle::exec

// --- catalog helpers --------------------------------------------------------

namespace cackle::exec {

StoredCatalog EncodeCatalog(const Catalog& catalog,
                            const StorageWriteOptions& options) {
  StoredCatalog stored;
  stored.region = WriteTableFile(catalog.region, options);
  stored.nation = WriteTableFile(catalog.nation, options);
  stored.supplier = WriteTableFile(catalog.supplier, options);
  stored.part = WriteTableFile(catalog.part, options);
  stored.partsupp = WriteTableFile(catalog.partsupp, options);
  stored.customer = WriteTableFile(catalog.customer, options);
  stored.orders = WriteTableFile(catalog.orders, options);
  stored.lineitem = WriteTableFile(catalog.lineitem, options);
  return stored;
}

StatusOr<Catalog> DecodeCatalog(const StoredCatalog& stored) {
  Catalog catalog;
  struct Entry {
    const std::string* bytes;
    Table* table;
  };
  const Entry entries[] = {
      {&stored.region, &catalog.region},
      {&stored.nation, &catalog.nation},
      {&stored.supplier, &catalog.supplier},
      {&stored.part, &catalog.part},
      {&stored.partsupp, &catalog.partsupp},
      {&stored.customer, &catalog.customer},
      {&stored.orders, &catalog.orders},
      {&stored.lineitem, &catalog.lineitem},
  };
  for (const Entry& entry : entries) {
    auto table = ReadTableFile(*entry.bytes);
    if (!table.ok()) return table.status();
    *entry.table = std::move(table).value();
  }
  return catalog;
}

}  // namespace cackle::exec
