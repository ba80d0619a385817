#ifndef CACKLE_EXEC_EXEC_METRICS_H_
#define CACKLE_EXEC_EXEC_METRICS_H_

#include <atomic>
#include <cstdint>

namespace cackle {
class MetricsRegistry;
}

namespace cackle::exec {

/// \brief Process-wide counters for the vectorized executor kernels.
///
/// Operators run on PlanExecutor pool threads, so unlike the engine-side
/// MetricsRegistry (single-threaded by construction) these are relaxed
/// atomics: racing increments are safe and the totals are exact, only the
/// interleaving is unordered. PublishTo() snapshots them into a
/// MetricsRegistry under the stable `exec.*` prefix so bench artifacts and
/// regression tests can observe kernel behaviour (fallback activations,
/// flat-table resizes, dictionary sizes).
struct ExecKernelMetrics {
  /// Flat-table builds (packed-key path) in HashJoin/HashAggregate.
  std::atomic<int64_t> flat_table_builds{0};
  /// Flat-table capacity doublings across all builds.
  std::atomic<int64_t> flat_table_resizes{0};
  /// Operator calls that fell back to the heap RowKey path because the key
  /// columns do not pack into 64 bits (or string keys lack a shared dict).
  std::atomic<int64_t> key_fallback_activations{0};
  /// Operator calls that used the packed fixed-width key path.
  std::atomic<int64_t> key_packed_activations{0};
  /// Columns successfully dictionary-encoded / encode attempts abandoned
  /// because the distinct count exceeded the profitability caps.
  std::atomic<int64_t> dict_columns_encoded{0};
  std::atomic<int64_t> dict_encodes_abandoned{0};
  /// Total dictionary entries across encoded columns (sizes, summed).
  std::atomic<int64_t> dict_total_entries{0};
  /// Rows materialized through the gather kernels (AppendGather*).
  std::atomic<int64_t> gather_rows{0};
  /// Filter calls answered via selection vectors.
  std::atomic<int64_t> selection_filters{0};
  /// Dictionary-aware predicate evaluations (match computed per dict entry,
  /// then applied per row via codes).
  std::atomic<int64_t> dict_predicate_evals{0};
  void Reset();
};

/// The process-wide instance.
ExecKernelMetrics& ExecMetrics();

/// Snapshots the counters into `registry` under `exec.*`:
///   exec.flat_table.builds, exec.flat_table.resizes,
///   exec.keys.packed, exec.keys.fallback,
///   exec.dict.columns_encoded, exec.dict.encodes_abandoned,
///   exec.dict.total_entries, exec.gather.rows,
///   exec.filter.selection_vectors, exec.filter.dict_predicates
void PublishExecMetrics(MetricsRegistry& registry);

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_EXEC_METRICS_H_
