#include "strategy/allocation_model.h"

#include <algorithm>

#include "common/logging.h"

namespace cackle {

AllocationModel::Environment AllocationModel::EnvironmentOf(
    const CostModel& cost) {
  Environment env;
  env.startup_s = cost.vm_startup_ms / 1000;
  env.min_billing_s = cost.vm_min_billing_ms / 1000;
  env.vm_price_s = cost.VmCostPerSecond();
  env.elastic_price_s = cost.ElasticCostPerSecond();
  return env;
}

AllocationModel::AllocationModel(const CostModel* cost)
    : AllocationModel(cost->vm_startup_ms / 1000,
                      cost->vm_min_billing_ms / 1000, cost->VmCostPerSecond(),
                      cost->ElasticCostPerSecond()) {
  cost_ = cost;
}

AllocationModel::AllocationModel(int64_t startup_s, int64_t min_billing_s,
                                 double price_per_s,
                                 double elastic_price_per_s) {
  env_.startup_s = startup_s;
  env_.min_billing_s = min_billing_s;
  env_.vm_price_s = price_per_s;
  env_.elastic_price_s = elastic_price_per_s;
  CACKLE_CHECK_GE(env_.startup_s, 0);
  CACKLE_CHECK_GE(env_.min_billing_s, 0);
}

void AllocationModel::StartVms(int64_t count) {
  if (!running_.empty() && running_.back().start_s == now_s_) {
    running_.back().count += count;
  } else {
    running_.push_back(Run{now_s_, count});
  }
  available_ += count;
}

AllocationModel::StepResult AllocationModel::Step(int64_t target,
                                                  int64_t demand) {
  if (cost_ != nullptr) env_ = EnvironmentOf(*cost_);
  return Step(env_, target, demand);
}

AllocationModel::StepResult AllocationModel::Step(const Environment& env,
                                                  int64_t target,
                                                  int64_t demand) {
  CACKLE_CHECK(!finished_);
  CACKLE_CHECK_GE(target, 0);
  CACKLE_CHECK_GE(demand, 0);
  env_ = env;

  // 1. VMs whose startup delay elapsed become available.
  while (!pending_.empty() && pending_.front().ready_s <= now_s_) {
    StartVms(pending_.front().count);
    pending_count_ -= pending_.front().count;
    pending_.pop_front();
  }

  // 2. Apply the new target. A rise requests VMs (available after the
  //    startup delay). A drop first withdraws still-pending requests
  //    (newest first, free — a spot-request modification), then terminates
  //    idle VMs; busy VMs are "terminated once idle" (Section 4.1).
  int64_t allocated = available_ + pending_count_;
  if (target > allocated) {
    const int64_t add = target - allocated;
    if (env_.startup_s == 0) {
      StartVms(add);
    } else {
      pending_.push_back(PendingBatch{now_s_ + env_.startup_s, add});
      pending_count_ += add;
    }
  } else if (target < allocated) {
    while (allocated > target && pending_count_ > 0) {
      PendingBatch& batch = pending_.back();
      const int64_t cancel = std::min(batch.count, allocated - target);
      batch.count -= cancel;
      pending_count_ -= cancel;
      allocated -= cancel;
      if (batch.count == 0) pending_.pop_back();
    }
    // Terminate idle VMs (oldest first); busy ones stay until released,
    // and VMs still inside their minimum billing window stay too — there
    // is no value in shutting them down before the minimum elapses
    // (Section 3), and they may be reused if demand returns. Runs are
    // ordered by start, so the first run still inside its minimum ends
    // the sweep.
    const int64_t busy = std::min<int64_t>(demand, available_);
    int64_t idle = available_ - busy;
    while (allocated > target && idle > 0 && !running_.empty() &&
           now_s_ - running_.front().start_s >= env_.min_billing_s) {
      Run& oldest = running_.front();
      const int64_t stop =
          std::min({oldest.count, allocated - target, idle});
      oldest.count -= stop;
      available_ -= stop;
      idle -= stop;
      allocated -= stop;
      if (oldest.count == 0) running_.pop_front();
    }
  }

  // 3. Bill this second.
  StepResult result;
  result.available = available_;
  result.vm_cost = static_cast<double>(result.available) * env_.vm_price_s;
  const int64_t overflow = std::max<int64_t>(0, demand - result.available);
  result.elastic_cost = static_cast<double>(overflow) * env_.elastic_price_s;
  vm_cost_ += result.vm_cost;
  elastic_cost_ += result.elastic_cost;
  total_vm_seconds_ += result.available;
  total_elastic_task_seconds_ += overflow;

  ++now_s_;
  return result;
}

void AllocationModel::Finish() {
  CACKLE_CHECK(!finished_);
  pending_.clear();
  pending_count_ = 0;
  // Final terminations still owe any unmet minimum billing. The penalty is
  // added once per VM, oldest first, so the floating-point sum is the one
  // a per-VM fleet would produce.
  for (const Run& run : running_) {
    const int64_t ran = now_s_ - run.start_s;
    if (ran >= env_.min_billing_s) continue;
    const double penalty =
        static_cast<double>(env_.min_billing_s - ran) * env_.vm_price_s;
    for (int64_t i = 0; i < run.count; ++i) {
      vm_cost_ += penalty;
      total_vm_seconds_ += env_.min_billing_s - ran;
    }
  }
  running_.clear();
  available_ = 0;
  finished_ = true;
}

}  // namespace cackle
