#ifndef CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_
#define CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cost_model.h"
#include "common/rng.h"
#include "strategy/allocation_model.h"
#include "strategy/multiplicative_weights.h"
#include "strategy/strategy.h"

namespace cackle {

/// \brief Options for the dynamic cost-based meta-strategy.
struct DynamicStrategyOptions {
  FamilyOptions family;
  /// The meta-strategy re-runs (penalty update + expert re-selection) at
  /// this cadence; the paper uses five seconds.
  int64_t update_interval_s = 5;
  /// Multiplicative-weights learning rate.
  double epsilon = 0.25;
  /// Relative weight floor (fixed-share style) so the meta-strategy can
  /// re-converge quickly after an environment change; 0 disables.
  double weight_floor_ratio = 1e-6;
  /// Expert selection each round: true = sample from the weight
  /// distribution (the textbook randomized algorithm and the paper's
  /// description); false = play the heaviest expert (follow-the-leader,
  /// deterministic). Sampling keeps the adversarial regret guarantee;
  /// argmax avoids bouncing among near-tied experts.
  bool sample_expert = true;
  /// Tenant-aware demand aggregation: when the coordinator feeds a
  /// per-tenant demand mix (multi-tenant runs only), the played target is
  /// floored at `tenant_headroom` times the sum of each tenant's trailing
  /// `tenant_window_s`-second demand peak — capacity for every tenant to
  /// replay its recent burst simultaneously, so a quiet tenant's headroom
  /// is not silently repurposed when a heavy tenant dominates the
  /// aggregate percentiles. With one tenant the mix is never fed and the
  /// strategy is bit-identical to the single-tenant meta-strategy.
  bool tenant_aware = true;
  int64_t tenant_window_s = 60;
  double tenant_headroom = 1.0;
  uint64_t seed = 7;
};

/// \brief Cackle's dynamic cost-based meta-strategy (Section 4.4).
///
/// Maintains the whole percentile family as experts. Every second each
/// expert produces a target from the workload history; a per-expert
/// AllocationModel turns that target history into an allocation history
/// under the known VM startup time, and prices it against the cost model
/// (what the expert *would* have cost had it been driving the system).
/// Every `update_interval_s` seconds the interval costs become penalties
/// for a multiplicative-weights update and the played expert is re-sampled
/// from the weight distribution. The played expert's current target is the
/// strategy's output.
///
/// The family is one flat table of (lookback, percentile, multiplier) rows
/// in PercentileFamilyRows() order. Each second the table reads every
/// distinct cut point of a lookback from the history's sorted window (the
/// boosted percentile once for all its multipliers), then derives each
/// row's target and steps its allocation model in one loop under one read
/// of the cost model.
///
/// If the cost model changes mid-workload (price or startup-time change),
/// the expert evaluations pick up the new conditions from the next step —
/// no parameters encode the old prices.
class DynamicStrategy : public ProvisioningStrategy {
 public:
  DynamicStrategy(const CostModel* cost,
                  DynamicStrategyOptions options = DynamicStrategyOptions());
  ~DynamicStrategy() override;

  std::string name() const override { return "dynamic"; }
  int64_t Target(const WorkloadHistory& history) override;

  /// Tenant-aware aggregation (see DynamicStrategyOptions::tenant_aware):
  /// maintains a per-tenant sliding-window demand peak; the next Target()
  /// call is floored at headroom * sum-of-peaks. Pure bookkeeping — no RNG
  /// draws — so feeding an empty mix (or never calling this) leaves the
  /// strategy untouched.
  void ObserveTenantDemand(const std::vector<TenantDemand>& mix) override;

  /// The current isolation floor, headroom * sum of per-tenant window
  /// peaks (0 when tenant awareness is off or no mix was ever observed).
  int64_t TenantIsolationFloor() const;

  /// Records a decision snapshot at every update round: counters for
  /// updates and expert switches, the chosen expert and its sampling
  /// probability, and a "strategy.decision" instant tagged with the expert
  /// name and played target (timestamped on the strategy's own seconds
  /// clock, which includes any primed-history replay).
  void SetObservability(MetricsRegistry* metrics, Tracer* tracer) override;

  size_t num_experts() const { return expert_names_.size(); }
  /// The expert currently driving the system.
  size_t chosen_expert() const { return chosen_; }
  const std::string& chosen_expert_name() const;
  /// Predicted cumulative cost of expert `i` so far.
  double ExpertCost(size_t i) const;
  const MultiplicativeWeights& weights() const { return *mw_; }

  /// Number of times the chosen expert changed across updates.
  int64_t expert_switches() const { return switches_; }

 private:
  /// The distinct percentiles the rows of one lookback read ("cut
  /// points"), with their nearest ranks cached for a window of `ranked_n`
  /// samples; the ranks stop changing once the window is full.
  struct LookbackCuts {
    int64_t lookback_s = 0;
    size_t first_cut = 0;  // index of this lookback's first cut point
    std::vector<double> percentiles;
    std::vector<int64_t> ranks;
    int64_t ranked_n = -1;
  };

  /// Reads every cut point of every lookback from the history, then sets
  /// targets_ to each row's ceil(cut value * multiplier).
  void ComputeTargets(const WorkloadHistory& history);

  const CostModel* cost_;
  DynamicStrategyOptions options_;
  // The expert table, one entry per row in PercentileFamilyRows() order.
  std::vector<std::string> expert_names_;
  std::vector<size_t> expert_cut_;  // index into cut_values_
  std::vector<double> expert_multiplier_;
  std::vector<AllocationModel> models_;
  std::vector<int64_t> targets_;  // this second's target per expert
  std::vector<double> interval_cost_;
  std::vector<double> penalties_;
  std::vector<LookbackCuts> lookbacks_;
  std::vector<int64_t> cut_values_;  // this second's value per cut point
  std::unique_ptr<MultiplicativeWeights> mw_;
  Rng rng_;
  size_t chosen_ = 0;
  /// Per-tenant trailing demand samples as (observation index, demand)
  /// monotonic deques: the front is the window maximum. Ordered map for
  /// deterministic iteration; tenants idle for a full window are erased.
  std::map<int32_t, std::deque<std::pair<int64_t, int64_t>>> tenant_peaks_;
  int64_t tenant_observations_ = 0;
  int64_t seconds_seen_ = 0;
  int64_t switches_ = 0;
  int64_t last_target_ = 0;
  MetricsRegistry* metrics_sink_ = nullptr;
  Tracer* tracer_sink_ = nullptr;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_DYNAMIC_STRATEGY_H_
