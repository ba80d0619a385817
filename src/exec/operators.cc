#include "exec/operators.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "exec/exec_metrics.h"
#include "exec/flat_hash.h"
#include "exec/op_context.h"

namespace cackle::exec {
namespace {

/// Canonical bit pattern of a double used as a join/group key: injective
/// (distinct doubles stay distinct) except that -0.0 is folded into +0.0 so
/// the two values that compare equal also key equal.
inline int64_t DoubleKeyBits(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 -> +0.0
  return std::bit_cast<int64_t>(v);
}

/// A hashable/comparable composite key over selected columns of a row.
/// Fallback representation for keys the packed-uint64 fast path can't
/// express (see PlanPackedKeys below).
struct RowKey {
  std::vector<int64_t> ints;
  std::vector<std::string> strings;

  bool operator==(const RowKey& other) const {
    return ints == other.ints && strings == other.strings;
  }
};

struct RowKeyHash {
  size_t operator()(const RowKey& key) const {
    size_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    for (int64_t v : key.ints) mix(std::hash<int64_t>{}(v));
    for (const std::string& s : key.strings) mix(std::hash<std::string>{}(s));
    return h;
  }
};

RowKey ExtractKey(const Table& t, const std::vector<int>& cols, int64_t row) {
  RowKey key;
  for (int c : cols) {
    const Column& col = t.column(c);
    switch (col.type()) {
      case DataType::kInt64:
        key.ints.push_back(col.ints()[static_cast<size_t>(row)]);
        break;
      case DataType::kFloat64:
        // Exact value identity: the full bit pattern, not a hash of it
        // (hashing here collapsed distinct doubles into one key).
        key.ints.push_back(
            DoubleKeyBits(col.doubles()[static_cast<size_t>(row)]));
        break;
      case DataType::kString:
        key.strings.push_back(col.strings()[static_cast<size_t>(row)]);
        break;
    }
  }
  return key;
}

std::vector<int> ResolveColumns(const Table& t,
                                const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.push_back(t.ColumnIndex(n));
  return out;
}

// --- packed composite keys --------------------------------------------------
//
// When every key column fits a fixed-width bit field, a whole composite key
// packs injectively into one uint64_t and the build side becomes a flat
// open-addressing table (FlatMap64) instead of a node-based unordered_map:
//   * kInt64  : value - min, sized by the observed [min, max] range
//               (range taken over BOTH sides of a join);
//   * kString : the dictionary code (requires the sidecar; for joins the
//               probe side is re-coded into the build side's dictionary,
//               with an out-of-range sentinel code for values the build
//               dictionary does not contain — those can never match);
//   * kFloat64: all 64 bits of the canonical pattern.
// Keys that don't fit (no dictionary, > 64 total bits, mismatched types)
// fall back to the RowKey path above.

struct PackedCol {
  enum class Src { kIntRange, kDict, kDictRemap, kDouble };
  Src src = Src::kIntRange;
  const std::vector<int64_t>* ints = nullptr;
  const std::vector<double>* doubles = nullptr;
  const std::vector<int32_t>* codes = nullptr;
  std::vector<int32_t> remap;  // kDictRemap: probe code -> build code
  int64_t base = 0;
  int bits = 0;
  int shift = 0;
};

inline uint64_t PackRow(const std::vector<PackedCol>& plan, int64_t row) {
  uint64_t key = 0;
  for (const PackedCol& pc : plan) {
    uint64_t v = 0;
    switch (pc.src) {
      case PackedCol::Src::kIntRange:
        v = static_cast<uint64_t>((*pc.ints)[static_cast<size_t>(row)]) -
            static_cast<uint64_t>(pc.base);
        break;
      case PackedCol::Src::kDict:
        v = static_cast<uint64_t>((*pc.codes)[static_cast<size_t>(row)]);
        break;
      case PackedCol::Src::kDictRemap:
        v = static_cast<uint64_t>(pc.remap[static_cast<size_t>(
            (*pc.codes)[static_cast<size_t>(row)])]);
        break;
      case PackedCol::Src::kDouble:
        v = static_cast<uint64_t>(DoubleKeyBits(
            (*pc.doubles)[static_cast<size_t>(row)]));
        break;
    }
    if (pc.bits != 0) key |= v << pc.shift;
  }
  return key;
}

/// Assigns bit offsets; returns false when the composite needs > 64 bits.
bool FinishLayout(std::vector<PackedCol>* a, std::vector<PackedCol>* b) {
  int shift = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    (*a)[i].shift = shift;
    if (b != nullptr) (*b)[i].shift = shift;
    shift += (*a)[i].bits;
    if (shift > 64) return false;
  }
  return true;
}

int IntRangeBits(const std::vector<int64_t>& xs, bool* any, int64_t* mn,
                 int64_t* mx) {
  for (int64_t v : xs) {
    if (!*any) {
      *mn = *mx = v;
      *any = true;
    } else {
      *mn = std::min(*mn, v);
      *mx = std::max(*mx, v);
    }
  }
  const uint64_t span =
      *any ? static_cast<uint64_t>(*mx) - static_cast<uint64_t>(*mn) : 0;
  return span == 0 ? 0 : std::bit_width(span);
}

/// Plans packed layouts for a join's probe (left) and build (right) sides.
/// The two plans must agree bit-for-bit on equal keys, so integer ranges are
/// taken over both columns and string codes are expressed in the build
/// side's dictionary space.
bool PlanJoinPack(const Table& left, const std::vector<int>& lcols,
                  const Table& right, const std::vector<int>& rcols,
                  std::vector<PackedCol>* lplan,
                  std::vector<PackedCol>* rplan) {
  for (size_t i = 0; i < lcols.size(); ++i) {
    const Column& lc = left.column(lcols[i]);
    const Column& rc = right.column(rcols[i]);
    if (lc.type() != rc.type()) return false;
    PackedCol lp, rp;
    switch (lc.type()) {
      case DataType::kInt64: {
        bool any = false;
        int64_t mn = 0, mx = 0;
        IntRangeBits(lc.ints(), &any, &mn, &mx);
        const int bits = IntRangeBits(rc.ints(), &any, &mn, &mx);
        lp.src = rp.src = PackedCol::Src::kIntRange;
        lp.base = rp.base = mn;
        lp.bits = rp.bits = bits;
        lp.ints = &lc.ints();
        rp.ints = &rc.ints();
        break;
      }
      case DataType::kString: {
        if (!lc.has_dict() || !rc.has_dict()) return false;
        const uint64_t size = static_cast<uint64_t>(rc.dict().size());
        rp.src = PackedCol::Src::kDict;
        rp.codes = &rc.codes();
        // bit_width(size) also covers the sentinel code == size.
        rp.bits = size == 0 ? 0 : std::bit_width(size);
        lp.bits = rp.bits;
        lp.codes = &lc.codes();
        if (lc.dict_ptr() == rc.dict_ptr()) {
          lp.src = PackedCol::Src::kDict;
        } else {
          lp.src = PackedCol::Src::kDictRemap;
          lp.remap.reserve(static_cast<size_t>(lc.dict().size()));
          for (const std::string& s : lc.dict().values()) {
            const int32_t code = rc.dict().CodeOf(s);
            lp.remap.push_back(code >= 0 ? code
                                         : static_cast<int32_t>(size));
          }
        }
        break;
      }
      case DataType::kFloat64:
        lp.src = rp.src = PackedCol::Src::kDouble;
        lp.bits = rp.bits = 64;
        lp.doubles = &lc.doubles();
        rp.doubles = &rc.doubles();
        break;
    }
    lplan->push_back(std::move(lp));
    rplan->push_back(std::move(rp));
  }
  return FinishLayout(lplan, rplan);
}

/// Plans a packed layout over one table's key columns (group-by keys).
bool PlanGroupPack(const Table& t, const std::vector<int>& cols,
                   std::vector<PackedCol>* plan) {
  for (int c : cols) {
    const Column& col = t.column(c);
    PackedCol pc;
    switch (col.type()) {
      case DataType::kInt64: {
        bool any = false;
        int64_t mn = 0, mx = 0;
        pc.bits = IntRangeBits(col.ints(), &any, &mn, &mx);
        pc.src = PackedCol::Src::kIntRange;
        pc.base = mn;
        pc.ints = &col.ints();
        break;
      }
      case DataType::kString: {
        if (!col.has_dict()) return false;
        const uint64_t size = static_cast<uint64_t>(col.dict().size());
        pc.src = PackedCol::Src::kDict;
        pc.codes = &col.codes();
        pc.bits = size <= 1 ? 0 : std::bit_width(size - 1);
        break;
      }
      case DataType::kFloat64:
        pc.src = PackedCol::Src::kDouble;
        pc.bits = 64;
        pc.doubles = &col.doubles();
        break;
    }
    plan->push_back(std::move(pc));
  }
  return FinishLayout(plan, nullptr);
}

/// Initial FlatMap64 sizing: at most the row count, at most the packed key
/// space, and never a huge up-front allocation (growth is amortized-cheap,
/// oversizing a low-cardinality aggregate's table is not).
int64_t ExpectedKeys(int64_t rows, const std::vector<PackedCol>& plan) {
  int bits = 0;
  for (const PackedCol& pc : plan) bits += pc.bits;
  if (bits < 20) rows = std::min<int64_t>(rows, int64_t{1} << bits);
  return std::min<int64_t>(rows, int64_t{1} << 20);
}

/// Adds to counts[g] the number of distinct values of `in` among the rows
/// of group g (`gid[r]` is row r's group). Sorts (group, value) pairs and
/// counts each group's runs of equal values; dictionary strings compare by
/// code (canonicalized, so equal strings count once even if a dictionary
/// repeats a value), plain strings by a sort of row indices.
void CountDistinct(const std::vector<int64_t>& gid, const Column& in,
                   std::vector<int64_t>* counts) {
  const size_t n = gid.size();
  if (in.type() == DataType::kString && !in.has_dict()) {
    const std::vector<std::string>& xs = in.strings();
    std::vector<int64_t> rows(n);
    std::iota(rows.begin(), rows.end(), 0);
    std::sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
      const size_t i = static_cast<size_t>(a);
      const size_t j = static_cast<size_t>(b);
      if (gid[i] != gid[j]) return gid[i] < gid[j];
      return xs[i] < xs[j];
    });
    for (size_t k = 0; k < n; ++k) {
      const size_t r = static_cast<size_t>(rows[k]);
      const size_t prev = k == 0 ? 0 : static_cast<size_t>(rows[k - 1]);
      if (k == 0 || gid[r] != gid[prev] || xs[r] != xs[prev]) {
        ++(*counts)[static_cast<size_t>(gid[r])];
      }
    }
    return;
  }
  std::vector<std::pair<int64_t, int64_t>> pairs(n);
  if (in.type() == DataType::kInt64) {
    const std::vector<int64_t>& xs = in.ints();
    for (size_t r = 0; r < n; ++r) pairs[r] = {gid[r], xs[r]};
  } else {
    CACKLE_CHECK(in.type() == DataType::kString)
        << "count distinct over doubles unsupported";
    const StringDictionary& dict = in.dict();
    std::vector<int32_t> canon(static_cast<size_t>(dict.size()));
    for (size_t c = 0; c < canon.size(); ++c) {
      canon[c] = dict.CodeOf(dict.values()[c]);
    }
    const std::vector<int32_t>& codes = in.codes();
    for (size_t r = 0; r < n; ++r) {
      pairs[r] = {gid[r], canon[static_cast<size_t>(codes[r])]};
    }
  }
  std::sort(pairs.begin(), pairs.end());
  for (size_t k = 0; k < n; ++k) {
    if (k == 0 || pairs[k] != pairs[k - 1]) {
      ++(*counts)[static_cast<size_t>(pairs[k].first)];
    }
  }
}

}  // namespace

Table Filter(const Table& input, const ExprPtr& predicate) {
  CACKLE_CHECK(predicate != nullptr);
  const std::vector<int64_t> keep = EvalPredicateSelection(predicate, input);
  return input.GatherRows(keep);
}

Table Project(const Table& input, const ExprPtr& filter,
              const std::vector<NamedExpr>& projections) {
  const Table* source = &input;
  Table filtered;
  if (filter != nullptr) {
    filtered = Filter(input, filter);
    source = &filtered;
  }
  Table out;
  for (const NamedExpr& ne : projections) {
    Column col = ne.expr->Eval(*source);
    out.AddColumn(ColumnDef{ne.name, col.type()}, std::move(col));
  }
  return out;
}

namespace {

/// The columns of `table` named in `names`, each filled by `fill(dst, src)`
/// to `rows` rows; a row-count-only table when `names` is empty.
template <typename Fill>
Table NarrowBatch(const Table& table, const std::vector<std::string>& names,
                  int64_t rows, const Fill& fill) {
  if (names.empty()) return Table::RowsOnly(rows);
  std::vector<int> cols = ResolveColumns(table, names);
  std::vector<ColumnDef> defs;
  defs.reserve(cols.size());
  for (const int c : cols) defs.push_back(table.column_def(c));
  Table out(std::move(defs));
  for (size_t i = 0; i < cols.size(); ++i) {
    fill(out.column(static_cast<int>(i)), table.column(cols[i]));
  }
  out.FinishBulkAppend();
  return out;
}

}  // namespace

TableScan::TableScan(ExprPtr filter, std::vector<NamedExpr> projections)
    : filter_(std::move(filter)), projections_(std::move(projections)) {
  const std::set<std::string> filter_cols = ReferencedColumns(filter_);
  filter_columns_.assign(filter_cols.begin(), filter_cols.end());
  std::set<std::string> project_cols;
  for (const NamedExpr& ne : projections_) {
    ne.expr->CollectColumns(&project_cols);
  }
  project_columns_.assign(project_cols.begin(), project_cols.end());
}

Table TableScan::Run(const Table& table, int64_t begin, int64_t end) const {
  CACKLE_CHECK_GE(begin, 0);
  CACKLE_CHECK_LE(begin, end);
  CACKLE_CHECK_LE(end, table.num_rows());
  const auto copy_range = [begin, end](Column& dst, const Column& src) {
    dst.AppendRange(src, begin, end);
  };
  if (filter_ == nullptr) {
    return Project(
        NarrowBatch(table, project_columns_, end - begin, copy_range),
        nullptr, projections_);
  }
  std::vector<int64_t> rows = EvalPredicateSelection(
      filter_, NarrowBatch(table, filter_columns_, end - begin, copy_range));
  for (int64_t& r : rows) r += begin;
  return Project(NarrowBatch(table, project_columns_,
                             static_cast<int64_t>(rows.size()),
                             [&rows](Column& dst, const Column& src) {
                               dst.AppendGather(src, rows);
                             }),
                 nullptr, projections_);
}

Table HashJoin(const Table& left, const std::vector<std::string>& left_keys,
               const Table& right, const std::vector<std::string>& right_keys,
               JoinType type) {
  CACKLE_CHECK_EQ(left_keys.size(), right_keys.size());
  CACKLE_CHECK(!left_keys.empty());
  const std::vector<int> lcols = ResolveColumns(left, left_keys);
  const std::vector<int> rcols = ResolveColumns(right, right_keys);

  const bool emit_right =
      type == JoinType::kInner || type == JoinType::kLeftOuter;
  // Output schema: left columns then right columns; duplicate names CHECKed.
  std::vector<ColumnDef> defs = left.schema();
  if (emit_right) {
    for (const ColumnDef& def : right.schema()) {
      for (const ColumnDef& existing : defs) {
        CACKLE_CHECK(existing.name != def.name)
            << "duplicate column in join output: " << def.name;
      }
      defs.push_back(def);
    }
  }

  // Build side: map key -> group id; per group, a chain of build rows in
  // ascending row order (head/tail/next), matching insertion order of the
  // old per-key vectors. Probe resolves each left row to a group id.
  std::vector<int64_t> head;
  std::vector<int64_t> tail;
  std::vector<int64_t> next(static_cast<size_t>(right.num_rows()), -1);
  std::vector<int64_t> probe_gid(static_cast<size_t>(left.num_rows()), -1);

  const OpExecContext& ctx = CurrentOpExecContext();
  int64_t scratch_bytes = 0;
  std::vector<PackedCol> lplan, rplan;
  if (PlanJoinPack(left, lcols, right, rcols, &lplan, &rplan)) {
    ExecMetrics().key_packed_activations.fetch_add(1,
                                                   std::memory_order_relaxed);
    const int64_t nr = right.num_rows();
    const int64_t nl = left.num_rows();
    // Packed build keys and hashes, precomputed in one pass.
    std::vector<uint64_t> rkeys(static_cast<size_t>(nr));
    std::vector<uint64_t> rhash(static_cast<size_t>(nr));
    for (int64_t r = 0; r < nr; ++r) {
      const uint64_t key = PackRow(rplan, r);
      rkeys[static_cast<size_t>(r)] = key;
      rhash[static_cast<size_t>(r)] = Mix64(key);
    }
    scratch_bytes += nr * 16;

    // Ordered FindOrInsert over the precomputed keys pins group numbering
    // and chain contents to ascending build-row order.
    FlatMap64 map(ExpectedKeys(nr, rplan));
    for (int64_t r = 0; r < nr; ++r) {
      bool inserted = false;
      const int64_t gid = map.FindOrInsertHashed(
          rkeys[static_cast<size_t>(r)], rhash[static_cast<size_t>(r)],
          static_cast<int64_t>(head.size()), &inserted);
      if (inserted) {
        head.push_back(r);
        tail.push_back(r);
      } else {
        next[static_cast<size_t>(tail[static_cast<size_t>(gid)])] = r;
        tail[static_cast<size_t>(gid)] = r;
      }
    }
    ExecMetrics().flat_table_builds.fetch_add(1, std::memory_order_relaxed);
    ExecMetrics().flat_table_resizes.fetch_add(map.resizes(),
                                               std::memory_order_relaxed);
    scratch_bytes += map.capacity() * 16;

    // Probe: keys hash in 8-row batches feeding a prefetch wave before
    // the dependent table walks.
    constexpr int64_t kBatch = 8;
    uint64_t keys[kBatch];
    uint64_t hashes[kBatch];
    for (int64_t base = 0; base < nl; base += kBatch) {
      const int64_t cnt = std::min(kBatch, nl - base);
      for (int64_t i = 0; i < cnt; ++i) {
        keys[i] = PackRow(lplan, base + i);
        hashes[i] = Mix64(keys[i]);
      }
      for (int64_t i = 0; i < cnt; ++i) map.Prefetch(hashes[i]);
      for (int64_t i = 0; i < cnt; ++i) {
        probe_gid[static_cast<size_t>(base + i)] =
            map.FindHashed(keys[i], hashes[i]);
      }
    }
  } else {
    ExecMetrics().key_fallback_activations.fetch_add(
        1, std::memory_order_relaxed);
    std::unordered_map<RowKey, int64_t, RowKeyHash> map;
    map.reserve(static_cast<size_t>(right.num_rows()));
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      auto [it, inserted] = map.try_emplace(ExtractKey(right, rcols, r),
                                            static_cast<int64_t>(head.size()));
      if (inserted) {
        head.push_back(r);
        tail.push_back(r);
      } else {
        next[static_cast<size_t>(tail[static_cast<size_t>(it->second)])] = r;
        tail[static_cast<size_t>(it->second)] = r;
      }
    }
    for (int64_t l = 0; l < left.num_rows(); ++l) {
      const auto it = map.find(ExtractKey(left, lcols, l));
      if (it != map.end()) probe_gid[static_cast<size_t>(l)] = it->second;
    }
  }

  // Emit as row-index lists in ascending left-row order.
  const int64_t emit_rows = left.num_rows();
  std::vector<int64_t> left_idx;
  std::vector<int64_t> right_idx;
  left_idx.reserve(static_cast<size_t>(emit_rows));
  if (emit_right) right_idx.reserve(static_cast<size_t>(emit_rows));
  for (int64_t l = 0; l < emit_rows; ++l) {
    const int64_t gid = probe_gid[static_cast<size_t>(l)];
    switch (type) {
      case JoinType::kInner:
        if (gid >= 0) {
          for (int64_t r = head[static_cast<size_t>(gid)]; r >= 0;
               r = next[static_cast<size_t>(r)]) {
            left_idx.push_back(l);
            right_idx.push_back(r);
          }
        }
        break;
      case JoinType::kLeftOuter:
        if (gid >= 0) {
          for (int64_t r = head[static_cast<size_t>(gid)]; r >= 0;
               r = next[static_cast<size_t>(r)]) {
            left_idx.push_back(l);
            right_idx.push_back(r);
          }
        } else {
          left_idx.push_back(l);
          right_idx.push_back(-1);  // null-padded below
        }
        break;
      case JoinType::kLeftSemi:
        if (gid >= 0) left_idx.push_back(l);
        break;
      case JoinType::kLeftAnti:
        if (gid < 0) left_idx.push_back(l);
        break;
    }
  }
  if (ctx.report_scratch_bytes != nullptr) {
    ctx.report_scratch_bytes(scratch_bytes);
  }

  if (!emit_right) return left.GatherRows(left_idx);

  // Materialize with one gather per column.
  Table out(defs);
  for (int c = 0; c < left.num_columns(); ++c) {
    out.column(c).AppendGather(left.column(c), left_idx);
  }
  for (int rc = 0; rc < right.num_columns(); ++rc) {
    Column& dst = out.column(left.num_columns() + rc);
    if (type == JoinType::kLeftOuter) {
      dst.AppendGatherPadded(right.column(rc), right_idx);
    } else {
      dst.AppendGather(right.column(rc), right_idx);
    }
  }
  out.FinishBulkAppend();
  return out;
}

Table HashAggregate(const Table& input,
                    const std::vector<std::string>& group_by,
                    const std::vector<AggSpec>& aggregates) {
  const std::vector<int> gcols = ResolveColumns(input, group_by);
  const int64_t n = input.num_rows();

  // Aggregate inputs: column references are borrowed, anything else is
  // evaluated once over the whole table.
  std::vector<Column> agg_storage(aggregates.size());
  std::vector<const Column*> agg_inputs(aggregates.size(), nullptr);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggSpec& spec = aggregates[a];
    if (spec.input == nullptr) {
      CACKLE_CHECK(spec.op == AggOp::kCount);
      continue;
    }
    agg_inputs[a] = spec.input->TryBorrow(input);
    if (agg_inputs[a] == nullptr) {
      agg_storage[a] = spec.input->Eval(input);
      agg_inputs[a] = &agg_storage[a];
    }
  }

  // Pass 1: group id per row + first-seen row per group (group output order
  // is first-seen, as before). Packed keys precompute in one pass; the
  // group-id assignment walks rows in order, which pins first-seen
  // numbering — and therefore output row order.
  const OpExecContext& ctx = CurrentOpExecContext();
  int64_t scratch_bytes = 0;
  std::vector<int64_t> gid(static_cast<size_t>(n));
  std::vector<int64_t> first_rows;
  std::vector<PackedCol> plan;
  if (PlanGroupPack(input, gcols, &plan)) {
    ExecMetrics().key_packed_activations.fetch_add(1,
                                                   std::memory_order_relaxed);
    std::vector<uint64_t> keys(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      keys[static_cast<size_t>(r)] = PackRow(plan, r);
    }
    scratch_bytes += n * 8;
    int key_bits = 0;
    for (const PackedCol& pc : plan) key_bits += pc.bits;
    if (key_bits <= 20) {
      // Small key space: a direct-address table replaces hashing entirely
      // (the common TPC-H aggregates group on a handful of dictionary
      // codes). First-seen numbering in row order — identical to the hash
      // path.
      std::vector<int64_t> direct(size_t{1} << key_bits, -1);
      for (int64_t r = 0; r < n; ++r) {
        const uint64_t key = keys[static_cast<size_t>(r)];
        int64_t g = direct[key];
        if (g < 0) {
          g = static_cast<int64_t>(first_rows.size());
          direct[key] = g;
          first_rows.push_back(r);
        }
        gid[static_cast<size_t>(r)] = g;
      }
      scratch_bytes += static_cast<int64_t>(direct.size()) * 8;
    } else {
      FlatMap64 map(ExpectedKeys(n, plan));
      for (int64_t r = 0; r < n; ++r) {
        bool inserted = false;
        gid[static_cast<size_t>(r)] = map.FindOrInsert(
            keys[static_cast<size_t>(r)],
            static_cast<int64_t>(first_rows.size()), &inserted);
        if (inserted) first_rows.push_back(r);
      }
      ExecMetrics().flat_table_builds.fetch_add(1, std::memory_order_relaxed);
      ExecMetrics().flat_table_resizes.fetch_add(map.resizes(),
                                                 std::memory_order_relaxed);
      scratch_bytes += map.capacity() * 16;
    }
  } else {
    ExecMetrics().key_fallback_activations.fetch_add(
        1, std::memory_order_relaxed);
    std::unordered_map<RowKey, int64_t, RowKeyHash> map;
    for (int64_t r = 0; r < n; ++r) {
      auto [it, inserted] =
          map.try_emplace(ExtractKey(input, gcols, r),
                          static_cast<int64_t>(first_rows.size()));
      if (inserted) first_rows.push_back(r);
      gid[static_cast<size_t>(r)] = it->second;
    }
  }

  // Global aggregate over empty input still yields one row of zeros.
  const bool global = group_by.empty();
  const int64_t num_groups =
      (global && first_rows.empty()) ? 1
                                     : static_cast<int64_t>(first_rows.size());

  // Pass 2: one typed accumulation loop per aggregate. Each group
  // accumulates in ascending row order — the same order as the previous
  // row-at-a-time implementation, so float sums are bit-identical.
  const size_t na = aggregates.size();
  std::vector<std::vector<double>> sums(na), mins(na), maxs(na);
  std::vector<std::vector<int64_t>> counts(na);
  auto run_aggregate = [&](size_t a) {
    const AggSpec& spec = aggregates[a];
    if (spec.op == AggOp::kCount) {
      counts[a].assign(static_cast<size_t>(num_groups), 0);
      for (int64_t r = 0; r < n; ++r) {
        ++counts[a][static_cast<size_t>(gid[static_cast<size_t>(r)])];
      }
      return;
    }
    const Column& in = *agg_inputs[a];
    if (spec.op == AggOp::kCountDistinct) {
      counts[a].assign(static_cast<size_t>(num_groups), 0);
      CountDistinct(gid, in, &counts[a]);
      return;
    }
    sums[a].assign(static_cast<size_t>(num_groups), 0.0);
    mins[a].assign(static_cast<size_t>(num_groups), 0.0);
    maxs[a].assign(static_cast<size_t>(num_groups), 0.0);
    counts[a].assign(static_cast<size_t>(num_groups), 0);
    auto accumulate = [&](auto&& value_at) {
      for (int64_t r = 0; r < n; ++r) {
        const size_t g =
            static_cast<size_t>(gid[static_cast<size_t>(r)]);
        const double v = value_at(static_cast<size_t>(r));
        if (counts[a][g] == 0) {
          mins[a][g] = maxs[a][g] = v;
        } else {
          mins[a][g] = std::min(mins[a][g], v);
          maxs[a][g] = std::max(maxs[a][g], v);
        }
        sums[a][g] += v;
        ++counts[a][g];
      }
    };
    if (in.type() == DataType::kInt64) {
      const std::vector<int64_t>& xs = in.ints();
      accumulate([&](size_t r) { return static_cast<double>(xs[r]); });
    } else {
      const std::vector<double>& xs = in.doubles();
      accumulate([&](size_t r) { return xs[r]; });
    }
  };
  scratch_bytes += n * 8;  // the gid vector
  if (ctx.report_scratch_bytes != nullptr) {
    ctx.report_scratch_bytes(scratch_bytes);
  }
  for (size_t a = 0; a < na; ++a) run_aggregate(a);

  // Output schema: group columns (original defs) then aggregates.
  std::vector<ColumnDef> defs;
  for (size_t g = 0; g < gcols.size(); ++g) {
    defs.push_back(input.column_def(gcols[static_cast<size_t>(g)]));
  }
  for (size_t a = 0; a < na; ++a) {
    const AggSpec& spec = aggregates[a];
    DataType type = DataType::kFloat64;
    if (spec.op == AggOp::kCount || spec.op == AggOp::kCountDistinct) {
      type = DataType::kInt64;
    } else if (spec.input != nullptr &&
               spec.input->OutputType(input) == DataType::kInt64 &&
               (spec.op == AggOp::kMin || spec.op == AggOp::kMax ||
                spec.op == AggOp::kSum)) {
      type = DataType::kInt64;
    }
    defs.push_back(ColumnDef{spec.name, type});
  }
  Table out(defs);

  // Group key values come from each group's first input row: one gather per
  // key column (keeps any dictionary sidecar).
  for (size_t g = 0; g < gcols.size(); ++g) {
    out.column(static_cast<int>(g))
        .AppendGather(input.column(gcols[g]), first_rows);
  }
  for (int64_t grp = 0; grp < num_groups; ++grp) {
    const size_t gi = static_cast<size_t>(grp);
    for (size_t a = 0; a < na; ++a) {
      const AggSpec& spec = aggregates[a];
      Column& dst = out.column(static_cast<int>(gcols.size() + a));
      double value = 0.0;
      switch (spec.op) {
        case AggOp::kSum:
          value = sums[a][gi];
          break;
        case AggOp::kMin:
          value = mins[a][gi];
          break;
        case AggOp::kMax:
          value = maxs[a][gi];
          break;
        case AggOp::kAvg:
          value = counts[a][gi] > 0
                      ? sums[a][gi] / static_cast<double>(counts[a][gi])
                      : 0.0;
          break;
        case AggOp::kCount:
        case AggOp::kCountDistinct:
          dst.AppendInt(counts[a][gi]);
          continue;
      }
      if (dst.type() == DataType::kInt64) {
        dst.AppendInt(static_cast<int64_t>(value));
      } else {
        dst.AppendDouble(value);
      }
    }
  }
  out.FinishBulkAppend();
  return out;
}

Table SortBy(const Table& input, const std::vector<SortKey>& keys,
             int64_t limit) {
  std::vector<int> cols;
  cols.reserve(keys.size());
  for (const SortKey& k : keys) cols.push_back(input.ColumnIndex(k.column));
  std::vector<int64_t> rows(static_cast<size_t>(input.num_rows()));
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const Column& c = input.column(cols[k]);
      int cmp = 0;
      switch (c.type()) {
        case DataType::kInt64: {
          const int64_t x = c.ints()[static_cast<size_t>(a)];
          const int64_t y = c.ints()[static_cast<size_t>(b)];
          cmp = x < y ? -1 : (x > y ? 1 : 0);
          break;
        }
        case DataType::kFloat64: {
          const double x = c.doubles()[static_cast<size_t>(a)];
          const double y = c.doubles()[static_cast<size_t>(b)];
          cmp = x < y ? -1 : (x > y ? 1 : 0);
          break;
        }
        case DataType::kString:
          cmp = c.strings()[static_cast<size_t>(a)].compare(
              c.strings()[static_cast<size_t>(b)]);
          break;
      }
      if (cmp != 0) return keys[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  if (limit >= 0 && limit < static_cast<int64_t>(rows.size())) {
    rows.resize(static_cast<size_t>(limit));
  }
  return input.TakeRows(rows);
}

std::vector<Table> PartitionByHash(const Table& input,
                                   const std::vector<std::string>& key_columns,
                                   int64_t num_partitions) {
  CACKLE_CHECK_GT(num_partitions, 0);
  const std::vector<int> cols = ResolveColumns(input, key_columns);

  // The partition id must stay identical to RowKeyHash(ExtractKey(...)) —
  // shuffle placement feeds row order downstream — so this streams the same
  // mix (numeric columns first, then string columns) without materializing
  // RowKeys. String columns with a dictionary hash each distinct value once.
  std::vector<const Column*> num_cols;
  struct StrCol {
    const Column* col;
    std::vector<size_t> code_hash;  // per-dictionary-entry hash, if dict
  };
  std::vector<StrCol> str_cols;
  for (int c : cols) {
    const Column& col = input.column(c);
    if (col.type() == DataType::kString) {
      StrCol sc{&col, {}};
      if (col.has_dict()) {
        sc.code_hash.reserve(static_cast<size_t>(col.dict().size()));
        for (const std::string& s : col.dict().values()) {
          sc.code_hash.push_back(std::hash<std::string>{}(s));
        }
      }
      str_cols.push_back(std::move(sc));
    } else {
      num_cols.push_back(&col);
    }
  }

  std::vector<std::vector<int64_t>> part_rows(
      static_cast<size_t>(num_partitions));
  const size_t reserve_hint =
      static_cast<size_t>(input.num_rows() / num_partitions + 1);
  for (auto& rows : part_rows) rows.reserve(reserve_hint);

  // Column-at-a-time hashing: each row's hash applies the per-column mixes
  // in the same order the old row-at-a-time loop did (numeric columns then
  // string columns), so the hash values — and therefore shuffle placement
  // and downstream row order — are bit-identical. Iterating rows innermost
  // turns the per-row column chase into sequential typed scans that
  // auto-vectorize.
  const int64_t n = input.num_rows();
  std::vector<size_t> hash(static_cast<size_t>(n), 0xcbf29ce484222325ULL);
  const auto mix = [](size_t& h, size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const Column* col : num_cols) {
    if (col->type() == DataType::kInt64) {
      const std::vector<int64_t>& xs = col->ints();
      for (int64_t r = 0; r < n; ++r) {
        mix(hash[static_cast<size_t>(r)],
            std::hash<int64_t>{}(xs[static_cast<size_t>(r)]));
      }
    } else {
      const std::vector<double>& xs = col->doubles();
      for (int64_t r = 0; r < n; ++r) {
        mix(hash[static_cast<size_t>(r)],
            std::hash<int64_t>{}(DoubleKeyBits(xs[static_cast<size_t>(r)])));
      }
    }
  }
  for (const StrCol& sc : str_cols) {
    if (!sc.code_hash.empty()) {
      const std::vector<int32_t>& codes = sc.col->codes();
      for (int64_t r = 0; r < n; ++r) {
        mix(hash[static_cast<size_t>(r)],
            sc.code_hash[static_cast<size_t>(codes[static_cast<size_t>(r)])]);
      }
    } else {
      const std::vector<std::string>& xs = sc.col->strings();
      for (int64_t r = 0; r < n; ++r) {
        mix(hash[static_cast<size_t>(r)],
            std::hash<std::string>{}(xs[static_cast<size_t>(r)]));
      }
    }
  }
  for (int64_t r = 0; r < n; ++r) {
    part_rows[hash[static_cast<size_t>(r)] %
              static_cast<size_t>(num_partitions)]
        .push_back(r);
  }
  const OpExecContext& ctx = CurrentOpExecContext();
  if (ctx.report_scratch_bytes != nullptr) {
    ctx.report_scratch_bytes(n * 8);
  }

  std::vector<Table> parts(static_cast<size_t>(num_partitions));
  for (int64_t p = 0; p < num_partitions; ++p) {
    parts[static_cast<size_t>(p)] =
        input.GatherRows(part_rows[static_cast<size_t>(p)]);
  }
  return parts;
}

Table RenameColumns(const Table& input, const std::vector<std::string>& names) {
  CACKLE_CHECK_EQ(static_cast<int>(names.size()), input.num_columns());
  Table out;
  for (int c = 0; c < input.num_columns(); ++c) {
    out.AddColumn(ColumnDef{names[static_cast<size_t>(c)],
                            input.column_def(c).type},
                  input.column(c));
  }
  return out;
}

Table SelectColumns(const Table& input, const std::vector<std::string>& names) {
  Table out;
  for (const std::string& name : names) {
    const int c = input.ColumnIndex(name);
    out.AddColumn(input.column_def(c), input.column(c));
  }
  return out;
}

}  // namespace cackle::exec
