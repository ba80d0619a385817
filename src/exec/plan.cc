#include "exec/plan.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "exec/op_context.h"
#include "exec/operators.h"

namespace cackle::exec {

PlanExecutor::PlanExecutor(int num_threads)
    : PlanExecutor(ExecutorOptions{num_threads}) {}

PlanExecutor::PlanExecutor(const ExecutorOptions& options)
    : options_(options) {
  CACKLE_CHECK_GE(options.num_threads, 1);
}

PlanExecutor::~PlanExecutor() = default;

ThreadPool* PlanExecutor::EnsurePool() {
  if (pool_ == nullptr) {
    // The calling thread helps while waiting on task groups, so N-1 workers
    // plus the caller give num_threads concurrent executors.
    pool_ = std::make_unique<ThreadPool>(options_.num_threads - 1);
  }
  return pool_.get();
}

void PlanExecutor::ExportMetrics(MetricsRegistry* metrics,
                                 const std::string& prefix) const {
  metrics->SetCounter(prefix + metric_names::kSuffixPlansRun, plans_run_);
  metrics->SetCounter(prefix + metric_names::kSuffixStagesRun, stages_run_);
  if (pool_ != nullptr) pool_->ExportMetrics(metrics, prefix);
}

const StagePlan& ValidatePlan(const StagePlan& plan) {
  CACKLE_CHECK(!plan.stages.empty()) << plan.name << ": empty plan";
  for (size_t i = 0; i < plan.stages.size(); ++i) {
    const PlanStage& stage = plan.stages[i];
    CACKLE_CHECK_GT(stage.num_tasks, 0) << plan.name << "/" << stage.label;
    CACKLE_CHECK(stage.run != nullptr) << plan.name << "/" << stage.label;
    CACKLE_CHECK_EQ(stage.deps.size(), stage.broadcast.size())
        << plan.name << "/" << stage.label;
    CACKLE_CHECK_GT(stage.output_partitions, 0)
        << plan.name << "/" << stage.label;
    for (size_t d = 0; d < stage.deps.size(); ++d) {
      const int dep = stage.deps[d];
      CACKLE_CHECK_GE(dep, 0);
      CACKLE_CHECK_LT(dep, static_cast<int>(i))
          << plan.name << ": deps must be topological";
      const PlanStage& upstream = plan.stages[static_cast<size_t>(dep)];
      if (stage.broadcast[d]) {
        CACKLE_CHECK_EQ(upstream.output_partitions, 1)
            << plan.name << "/" << stage.label
            << ": broadcast dep must gather to one partition";
      } else {
        CACKLE_CHECK_EQ(upstream.output_partitions, stage.num_tasks)
            << plan.name << "/" << stage.label
            << ": partitioned dep must match task count";
      }
    }
  }
  const PlanStage& last = plan.stages.back();
  CACKLE_CHECK_EQ(last.output_partitions, 1)
      << plan.name << ": final stage must gather to one partition";
  return plan;
}

namespace {

/// One plan execution: per-stage runtime state plus the phase bodies the
/// driver runs in fixed per-slot order, which is what keeps results
/// bit-identical at every thread count.
///
/// Stages run one at a time in plan order, each through three phases:
///   task phase      RunTask(i, t)        -> task_outputs[t]
///   partition phase PartitionTask(i, t)  -> parts[t][p]     (multi-part)
///                   or one GatherConcat(i)                  (single-part)
///   concat phase    ConcatPartition(i, p)-> outputs[i].partitions[p]
/// followed by FinishStage(i) bookkeeping. Upstream inputs are only read
/// during the task phase, so consumer counts drop when it ends and a
/// fully-consumed stage's partitions are freed immediately.
class PlanRun {
 public:
  PlanRun(const StagePlan& plan, PlanRunStats* stats)
      : plan_(plan),
        stats_(stats),
        outputs_(plan.stages.size()),
        stages_(plan.stages.size()) {
    if (stats_ != nullptr) {
      stats_->stages.clear();
      stats_->stages.resize(plan.stages.size());
      stats_->peak_resident_bytes = 0;
    }
    for (size_t i = 0; i < plan_.stages.size(); ++i) {
      const PlanStage& stage = plan_.stages[i];
      StageState& state = stages_[i];
      state.task_outputs.resize(static_cast<size_t>(stage.num_tasks));
      state.task_micros.assign(static_cast<size_t>(stage.num_tasks), 0);
      for (const int dep : stage.deps) {
        ++stages_[static_cast<size_t>(dep)].consumers_left;
      }
      if (stats_ != nullptr) {
        stats_->stages[i].label = stage.label;
        stats_->stages[i].num_tasks = stage.num_tasks;
      }
    }
    op_context_.report_scratch_bytes = [this](int64_t bytes) {
      ReportScratch(bytes);
    };
  }

  /// Runs every stage; `pool` null runs each phase inline in index order.
  Table Run(ThreadPool* pool) {
    for (size_t i = 0; i < plan_.stages.size(); ++i) {
      const PlanStage& stage = plan_.stages[i];
      const std::string context = plan_.name + "/" + stage.label;
      RunPhase(pool, context, stage.num_tasks, [this, i](int t) {
        RunTask(i, t);
      });
      ReleaseInputs(i);
      PrepareShuffle(i);
      if (stage.output_partitions == 1) {
        GatherConcat(i);
      } else {
        RunPhase(pool, context, stage.num_tasks, [this, i](int t) {
          PartitionTask(i, t);
        });
        RunPhase(pool, context, stage.output_partitions, [this, i](int p) {
          ConcatPartition(i, p);
        });
      }
      FinishStage(i);
    }
    if (stats_ != nullptr) {
      // Every phase has been waited for, but the analysis cannot see that
      // quiescence; take the lock for the final read rather than annotating
      // it away.
      MutexLock lock(&residency_mu_);
      stats_->peak_resident_bytes = peak_resident_;
    }
    CACKLE_CHECK_EQ(outputs_.back().partitions.size(), 1u) << plan_.name;
    return std::move(outputs_.back().partitions[0]);
  }

 private:
  struct StageState {
    /// Stages that still have to read this stage's output. Only the driving
    /// thread touches it, between phases.
    int consumers_left = 0;
    std::vector<Table> task_outputs;
    /// parts[t][p]: task t's hash partition p (multi-partition shuffle).
    std::vector<std::vector<Table>> parts;
    std::vector<int64_t> task_micros;
    /// Bytes this stage's finished partitions hold (set by FinishStage,
    /// subtracted from the resident total when the stage is freed).
    int64_t resident_bytes = 0;
  };

  /// Runs `fn(0) .. fn(n - 1)` and returns once all have finished: as one
  /// TaskGroup wave on the pool (the caller helps while waiting), or inline
  /// in index order without one. Each slot writes only its own index.
  template <typename Fn>
  static void RunPhase(ThreadPool* pool, const std::string& context, int n,
                       const Fn& fn) {
    if (pool == nullptr) {
      for (int k = 0; k < n; ++k) fn(k);
      return;
    }
    TaskGroup group(pool, context);
    for (int k = 0; k < n; ++k) group.Submit([&fn, k] { fn(k); });
    group.Wait();
  }

  // --- phase bodies ----------------------------------------------------------

  void RunTask(size_t i, int t) {
    const PlanStage& stage = plan_.stages[i];
    const ScopedLogContext ctx(plan_.name + "/" + stage.label);
    const ScopedOpExecContext op_ctx(&op_context_);
    StageState& state = stages_[i];
    TaskInput input;
    input.tables.reserve(stage.deps.size());
    for (size_t d = 0; d < stage.deps.size(); ++d) {
      const StageOutput& up = outputs_[static_cast<size_t>(stage.deps[d])];
      const size_t part = stage.broadcast[d] ? 0 : static_cast<size_t>(t);
      CACKLE_CHECK_LT(part, up.partitions.size());
      input.tables.push_back(&up.partitions[part]);
    }
    // Per-task wall time feeds profiling stats only, never query
    // results or billing.
    // NOLINTNEXTLINE(cackle-determinism): profiling-only timing.
    const auto t0 = std::chrono::steady_clock::now();
    state.task_outputs[static_cast<size_t>(t)] = stage.run(t, input);
    state.task_micros[static_cast<size_t>(t)] =
        std::chrono::duration_cast<std::chrono::microseconds>(
            // NOLINTNEXTLINE(cackle-determinism): profiling-only timing.
            std::chrono::steady_clock::now() - t0)
            .count();
  }

  void PartitionTask(size_t i, int t) {
    const PlanStage& stage = plan_.stages[i];
    const ScopedLogContext ctx(plan_.name + "/" + stage.label);
    const ScopedOpExecContext op_ctx(&op_context_);
    StageState& state = stages_[i];
    state.parts[static_cast<size_t>(t)] =
        PartitionByHash(state.task_outputs[static_cast<size_t>(t)],
                        stage.output_keys, stage.output_partitions);
    // The raw task output is fully partitioned now; drop it early.
    state.task_outputs[static_cast<size_t>(t)] = Table();
  }

  void ConcatPartition(size_t i, int p) {
    StageState& state = stages_[i];
    std::vector<Table> group;
    group.reserve(state.parts.size());
    for (auto& task_parts : state.parts) {
      group.push_back(std::move(task_parts[static_cast<size_t>(p)]));
    }
    outputs_[i].partitions[static_cast<size_t>(p)] = Concat(group);
  }

  void GatherConcat(size_t i) {
    StageState& state = stages_[i];
    outputs_[i].partitions[0] = Concat(state.task_outputs);
    state.task_outputs.clear();
  }

  /// Folds one operator's transient scratch high-water (packed keys, hash
  /// tables) into the peak residency figure. Concurrent
  /// operators each raise the peak against the same resident base, which
  /// understates overlap but never hides an operator's footprint entirely.
  void ReportScratch(int64_t bytes) {
    MutexLock lock(&residency_mu_);
    peak_resident_ = std::max(peak_resident_, current_resident_ + bytes);
  }

  /// Drops one consumer reference on every dependency of stage `i` (called
  /// once its task phase — the only phase that reads inputs — completes).
  void ReleaseInputs(size_t i) {
    for (const int dep : plan_.stages[i].deps) {
      if (--stages_[static_cast<size_t>(dep)].consumers_left == 0) {
        FreeStageOutput(static_cast<size_t>(dep));
      }
    }
  }

  void FreeStageOutput(size_t i) {
    if (i + 1 == plan_.stages.size()) return;  // the plan result
    {
      MutexLock lock(&residency_mu_);
      current_resident_ -= stages_[i].resident_bytes;
    }
    outputs_[i].partitions.clear();
    outputs_[i].partitions.shrink_to_fit();
  }

  /// Post-shuffle bookkeeping: stats, residency accounting, buffer cleanup.
  void FinishStage(size_t i) {
    StageState& state = stages_[i];
    state.parts.clear();
    state.task_outputs.clear();
    int64_t bytes = 0;
    int64_t rows = 0;
    for (const Table& p : outputs_[i].partitions) {
      bytes += p.EstimateBytes();
      rows += p.num_rows();
    }
    state.resident_bytes = bytes;
    {
      MutexLock lock(&residency_mu_);
      current_resident_ += bytes;
      peak_resident_ = std::max(peak_resident_, current_resident_);
    }
    if (stats_ != nullptr) {
      StageStats& sstats = stats_->stages[i];
      sstats.task_micros = std::move(state.task_micros);
      sstats.output_bytes = bytes;
      sstats.output_rows = rows;
    }
    // A stage nothing consumes (and that isn't the result) can go now.
    if (state.consumers_left == 0) {
      FreeStageOutput(i);
    }
  }

  void PrepareShuffle(size_t i) {
    const PlanStage& stage = plan_.stages[i];
    StageState& state = stages_[i];
    outputs_[i].partitions.resize(
        static_cast<size_t>(stage.output_partitions));
    if (stage.output_partitions > 1) {
      CACKLE_CHECK(!stage.output_keys.empty())
          << plan_.name << "/" << stage.label
          << ": multi-partition output needs keys";
      state.parts.resize(static_cast<size_t>(stage.num_tasks));
    }
  }

  const StagePlan& plan_;
  PlanRunStats* stats_;
  std::vector<StageOutput> outputs_;
  std::vector<StageState> stages_;
  /// Installed thread-locally around every task body (ScopedOpExecContext)
  /// so operators can report their scratch bytes.
  OpExecContext op_context_;
  /// Residency accounting is the one piece of PlanRun state concurrent
  /// tasks mutate outside per-index slots (operators report scratch from
  /// inside a phase); everything else merges in fixed index order.
  Mutex residency_mu_;
  int64_t current_resident_ CACKLE_GUARDED_BY(residency_mu_) = 0;
  int64_t peak_resident_ CACKLE_GUARDED_BY(residency_mu_) = 0;
};

}  // namespace

Table PlanExecutor::Execute(const StagePlan& plan, PlanRunStats* stats) {
  ValidatePlan(plan);
  // Plan wall time feeds PlanRunStats for benchmarks only; results and
  // metrics stay deterministic.
  // NOLINTNEXTLINE(cackle-determinism): profiling-only timing.
  const auto t0 = std::chrono::steady_clock::now();
  const bool pooled =
      options_.num_threads > 1 &&
      !(plan.stages.size() == 1 && plan.stages[0].num_tasks == 1);
  PlanRun run(plan, stats);
  Table result = run.Run(pooled ? EnsurePool() : nullptr);
  ++plans_run_;
  stages_run_ += static_cast<int64_t>(plan.stages.size());
  if (stats != nullptr) {
    stats->total_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                              // NOLINTNEXTLINE(cackle-determinism): ditto.
                              std::chrono::steady_clock::now() - t0)
                              .count();
  }
  return result;
}

}  // namespace cackle::exec
