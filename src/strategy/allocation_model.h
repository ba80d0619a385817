#ifndef CACKLE_STRATEGY_ALLOCATION_MODEL_H_
#define CACKLE_STRATEGY_ALLOCATION_MODEL_H_

#include <cstdint>
#include <deque>

#include "cloud/cost_model.h"

namespace cackle {

/// \brief Second-granularity model of how a target history turns into an
/// allocation history (Section 4.4.2) and what it costs (Section 4.4.3).
///
/// Rules mirror the simulated cloud substrate:
///  - A rise in target requests VMs that become available after the startup
///    delay (in whole seconds).
///  - A drop in target first cancels still-pending requests (newest first,
///    free), then terminates idle VMs — oldest first, and only VMs that
///    have met their minimum billing time (younger idle VMs stay: there is
///    no value in stopping them early, and they may be reused).
///  - Only idle VMs terminate: with demand d and a available, min(d, a) VMs
///    are busy, so at most max(0, a - d) can stop this second.
///  - Each second costs: available x VM price + overflow x elastic price,
///    where overflow = max(0, demand - available). (Section 4.4.3: demand
///    under the allocation runs on VMs, the excess on the elastic pool.)
///
/// The model is incremental so the dynamic meta-strategy can maintain one
/// instance per expert: running VMs are kept as runs of VMs that started
/// in the same second, so a step costs O(1) amortized in the number of
/// distinct start seconds touched, not in the number of VMs started or
/// stopped.
class AllocationModel {
 public:
  /// Startup delay, minimum billing and prices in force for one step.
  struct Environment {
    int64_t startup_s = 0;
    int64_t min_billing_s = 0;
    double vm_price_s = 0.0;
    double elastic_price_s = 0.0;
  };

  /// The environment a model constructed from `cost` steps under now.
  static Environment EnvironmentOf(const CostModel& cost);

  explicit AllocationModel(const CostModel* cost);

  /// Generalized constructor for other provisioned fleets (the shuffle layer
  /// reuses the same allocation rules with its own prices; its overflow is
  /// priced per request by the caller, so `elastic_price_per_s` may be 0).
  AllocationModel(int64_t startup_s, int64_t min_billing_s, double price_per_s,
                  double elastic_price_per_s);

  struct StepResult {
    /// VMs available during this second.
    int64_t available = 0;
    /// Dollars accrued this second (including any early-termination
    /// minimum-billing penalties paid this second).
    double vm_cost = 0.0;
    double elastic_cost = 0.0;
  };

  /// Advances one second: applies the strategy's `target`, serves `demand`.
  /// A model constructed from a CostModel first re-reads its environment,
  /// so mid-workload price or startup changes (Section 5.3: spot prices
  /// nearly doubling within a quarter) take effect on the next step.
  StepResult Step(int64_t target, int64_t demand);

  /// Step under an explicit environment, which replaces the model's own
  /// (also for Finish()). Lets a caller stepping many models read the
  /// CostModel once per second for all of them.
  StepResult Step(const Environment& env, int64_t target, int64_t demand);

  /// Terminates everything (end of workload), charging remaining
  /// minimum-billing penalties. Further Steps are invalid.
  void Finish();

  int64_t now_s() const { return now_s_; }
  int64_t available() const { return available_; }
  int64_t pending() const { return pending_count_; }
  double vm_cost() const { return vm_cost_; }
  double elastic_cost() const { return elastic_cost_; }
  double total_cost() const { return vm_cost_ + elastic_cost_; }
  int64_t total_vm_seconds() const { return total_vm_seconds_; }
  int64_t total_elastic_task_seconds() const {
    return total_elastic_task_seconds_;
  }

 private:
  struct PendingBatch {
    int64_t ready_s;  // second at which these VMs become available
    int64_t count;
  };
  struct Run {
    int64_t start_s;  // second at which these VMs became available
    int64_t count;
  };

  /// Adds `count` VMs available from this second on.
  void StartVms(int64_t count);

  const CostModel* cost_ = nullptr;  // null for the fixed-price constructor
  Environment env_;

  int64_t now_s_ = 0;
  std::deque<PendingBatch> pending_;  // ordered by ready_s
  int64_t pending_count_ = 0;
  /// Running VMs as runs of equal start second, oldest first.
  std::deque<Run> running_;
  int64_t available_ = 0;
  double vm_cost_ = 0.0;
  double elastic_cost_ = 0.0;
  int64_t total_vm_seconds_ = 0;
  int64_t total_elastic_task_seconds_ = 0;
  bool finished_ = false;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_ALLOCATION_MODEL_H_
