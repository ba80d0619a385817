#include "exec/profiler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metric_names.h"
#include "exec/plan.h"

namespace cackle::exec {

std::vector<QueryProfile> ProfileQuery(int query_id, const Catalog& catalog,
                                       const ProfilerOptions& options) {
  PlanExecutor executor(options.exec_threads);
  std::vector<QueryProfile> profiles =
      ProfileQueryOn(query_id, catalog, options, &executor);
  if (options.metrics != nullptr) {
    executor.ExportMetrics(options.metrics, metric_names::kPrefixExecPool);
  }
  return profiles;
}

std::vector<QueryProfile> ProfileQueryOn(int query_id, const Catalog& catalog,
                                         const ProfilerOptions& options,
                                         PlanExecutor* executor) {
  const StagePlan plan =
      BuildTpchPlan(query_id, catalog, options.plan_config);
  PlanRunStats stats;
  executor->Execute(plan, &stats);
  CACKLE_CHECK_EQ(stats.stages.size(), plan.stages.size());

  std::vector<QueryProfile> profiles;
  for (int sf : options.target_scale_factors) {
    const double scale =
        static_cast<double>(sf) / options.measured_scale_factor;
    QueryProfile profile;
    profile.query_id = query_id;
    profile.scale_factor = sf;
    profile.name = plan.name + "_sf" + std::to_string(sf);
    // First pass: scaled task counts per stage (needed for consumer-task
    // GET accounting below).
    std::vector<int> scaled_tasks(plan.stages.size());
    for (size_t i = 0; i < plan.stages.size(); ++i) {
      // Task sizes are fixed (container-sized), so the task count grows
      // with the data volume; single-task coordination stages stay single.
      const int measured = plan.stages[i].num_tasks;
      if (measured <= 1) {
        scaled_tasks[i] = 1;
      } else {
        scaled_tasks[i] = static_cast<int>(std::clamp<double>(
            std::lround(static_cast<double>(measured) * std::sqrt(scale)),
            measured, 512.0));
      }
    }
    for (size_t i = 0; i < plan.stages.size(); ++i) {
      const PlanStage& stage = plan.stages[i];
      const StageStats& sstats = stats.stages[i];
      StageProfile sp;
      sp.stage_id = static_cast<int>(i);
      sp.dependencies = stage.deps;
      sp.num_tasks = scaled_tasks[i];
      // Median measured task time, calibrated and floored.
      std::vector<int64_t> micros = sstats.task_micros;
      std::sort(micros.begin(), micros.end());
      const int64_t median_us =
          micros.empty() ? 0 : micros[micros.size() / 2];
      sp.task_duration_ms = std::max<int64_t>(
          options.min_task_ms,
          static_cast<int64_t>(static_cast<double>(median_us) *
                               options.micros_to_task_ms / 1000.0 *
                               std::sqrt(scale)));
      // Shuffle volume scales linearly with data size.
      const bool is_final = (i + 1 == plan.stages.size());
      if (!is_final) {
        sp.shuffle_bytes_out = std::max<int64_t>(
            1024, static_cast<int64_t>(
                      static_cast<double>(sstats.output_bytes) * scale));
        int64_t consumer_tasks = 0;
        for (size_t j = 0; j < plan.stages.size(); ++j) {
          for (int dep : plan.stages[j].deps) {
            if (dep == static_cast<int>(i)) consumer_tasks += scaled_tasks[j];
          }
        }
        sp.object_store_puts = 2LL * sp.num_tasks;
        sp.object_store_gets =
            static_cast<int64_t>(sp.num_tasks) *
            std::max<int64_t>(1, consumer_tasks);
      }
      profile.stages.push_back(std::move(sp));
    }
    CACKLE_CHECK_OK(profile.Validate());
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

std::vector<QueryProfile> ProfileAllQueries(const Catalog& catalog,
                                            const ProfilerOptions& options) {
  // One executor for the whole sweep: the thread pool spins up once
  // and every plan's stages reuse the same workers.
  PlanExecutor executor(options.exec_threads);
  std::vector<QueryProfile> all;
  for (int q : AllTpchQueryIds()) {
    std::vector<QueryProfile> profiles =
        ProfileQueryOn(q, catalog, options, &executor);
    for (auto& p : profiles) all.push_back(std::move(p));
  }
  if (options.metrics != nullptr) {
    executor.ExportMetrics(options.metrics, metric_names::kPrefixExecPool);
  }
  return all;
}

}  // namespace cackle::exec
