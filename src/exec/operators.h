#ifndef CACKLE_EXEC_OPERATORS_H_
#define CACKLE_EXEC_OPERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/table.h"

namespace cackle::exec {

/// \brief One output column of a projection: expression + name.
struct NamedExpr {
  ExprPtr expr;
  std::string name;
};

/// Evaluates `projections` over `input`, producing a new table. A null
/// filter keeps all rows; otherwise only rows where `filter` is non-zero
/// survive (filter applied before projection).
Table Project(const Table& input, const ExprPtr& filter,
              const std::vector<NamedExpr>& projections);

/// Filters rows where `predicate` is non-zero, keeping the schema.
Table Filter(const Table& input, const ExprPtr& predicate);

/// \brief A late-materialized scan of a base table.
///
/// `Run(table, begin, end)` returns exactly `Project(table.Slice(begin, end),
/// filter, projections)`: the same rows in the same order, every value and
/// every dictionary sidecar. It copies only what the query reads: the
/// filter's columns over [begin, end) to compute the selection, then the
/// projections' columns, gathered once from the base table at the
/// surviving row ids. The two column sets are resolved at construction.
class TableScan {
 public:
  /// `filter` may be null (keep every row).
  TableScan(ExprPtr filter, std::vector<NamedExpr> projections);

  Table Run(const Table& table, int64_t begin, int64_t end) const;

 private:
  ExprPtr filter_;
  std::vector<NamedExpr> projections_;
  std::vector<std::string> filter_columns_;
  std::vector<std::string> project_columns_;
};

/// \brief Join kinds supported by HashJoin.
enum class JoinType {
  kInner,
  /// All left rows; unmatched right columns default to 0 / 0.0 / "".
  kLeftOuter,
  /// Left rows with at least one match (no right columns in the output).
  kLeftSemi,
  /// Left rows with no match (no right columns in the output).
  kLeftAnti,
};

/// \brief Hash join on equality of `left_keys` and `right_keys` (same count
/// and matching types; int64 or string keys). Inner/outer outputs all left
/// columns followed by all right columns; name collisions on the right get
/// a "r_" prefix... the caller should deduplicate names beforehand (CHECKed).
Table HashJoin(const Table& left, const std::vector<std::string>& left_keys,
               const Table& right, const std::vector<std::string>& right_keys,
               JoinType type = JoinType::kInner);

/// \brief Aggregate functions.
enum class AggOp { kSum, kMin, kMax, kCount, kAvg, kCountDistinct };

struct AggSpec {
  AggOp op;
  /// Input expression; may be null for kCount (count rows).
  ExprPtr input;
  std::string name;
};

/// \brief Group-by hash aggregation. `group_by` columns are carried through;
/// aggregates are appended. With an empty `group_by`, produces exactly one
/// row (global aggregate), even for empty input (sums 0, counts 0).
Table HashAggregate(const Table& input,
                    const std::vector<std::string>& group_by,
                    const std::vector<AggSpec>& aggregates);

/// \brief Sort keys: column name + direction.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// Sorts (stable) by `keys`; keeps the first `limit` rows when limit >= 0.
Table SortBy(const Table& input, const std::vector<SortKey>& keys,
             int64_t limit = -1);

/// Splits `input` into `num_partitions` tables by hashing `key_columns`
/// (used by the stage executor's shuffle).
std::vector<Table> PartitionByHash(const Table& input,
                                   const std::vector<std::string>& key_columns,
                                   int64_t num_partitions);

/// Renames columns (size must match the schema width).
Table RenameColumns(const Table& input, const std::vector<std::string>& names);

/// Keeps only the named columns, in the given order.
Table SelectColumns(const Table& input, const std::vector<std::string>& names);

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_OPERATORS_H_
