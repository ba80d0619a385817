#include "exec/exec_metrics.h"

#include "common/metric_names.h"
#include "common/metrics.h"

namespace cackle::exec {

void ExecKernelMetrics::Reset() {
  flat_table_builds.store(0, std::memory_order_relaxed);
  flat_table_resizes.store(0, std::memory_order_relaxed);
  key_fallback_activations.store(0, std::memory_order_relaxed);
  key_packed_activations.store(0, std::memory_order_relaxed);
  dict_columns_encoded.store(0, std::memory_order_relaxed);
  dict_encodes_abandoned.store(0, std::memory_order_relaxed);
  dict_total_entries.store(0, std::memory_order_relaxed);
  gather_rows.store(0, std::memory_order_relaxed);
  selection_filters.store(0, std::memory_order_relaxed);
  dict_predicate_evals.store(0, std::memory_order_relaxed);
}

ExecKernelMetrics& ExecMetrics() {
  static ExecKernelMetrics* metrics = new ExecKernelMetrics();
  return *metrics;
}

void PublishExecMetrics(MetricsRegistry& registry) {
  namespace mn = metric_names;
  const ExecKernelMetrics& m = ExecMetrics();
  const auto get = [](const std::atomic<int64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  registry.SetCounter(mn::kExecFlatTableBuilds, get(m.flat_table_builds));
  registry.SetCounter(mn::kExecFlatTableResizes, get(m.flat_table_resizes));
  registry.SetCounter(mn::kExecKeysPacked, get(m.key_packed_activations));
  registry.SetCounter(mn::kExecKeysFallback, get(m.key_fallback_activations));
  registry.SetCounter(mn::kExecDictColumnsEncoded,
                      get(m.dict_columns_encoded));
  registry.SetCounter(mn::kExecDictEncodesAbandoned,
                      get(m.dict_encodes_abandoned));
  registry.SetCounter(mn::kExecDictTotalEntries, get(m.dict_total_entries));
  registry.SetCounter(mn::kExecGatherRows, get(m.gather_rows));
  registry.SetCounter(mn::kExecFilterSelectionVectors,
                      get(m.selection_filters));
  registry.SetCounter(mn::kExecFilterDictPredicates,
                      get(m.dict_predicate_evals));
}

}  // namespace cackle::exec
