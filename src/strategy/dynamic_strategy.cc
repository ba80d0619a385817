#include "strategy/dynamic_strategy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/metric_names.h"
#include "common/tracer.h"

namespace cackle {

DynamicStrategy::DynamicStrategy(const CostModel* cost,
                                 DynamicStrategyOptions options)
    : cost_(cost), options_(std::move(options)), rng_(options_.seed) {
  const std::vector<PercentileExpert> rows =
      PercentileFamilyRows(options_.family);
  const size_t n = rows.size();
  expert_names_.reserve(n);
  expert_cut_.reserve(n);
  expert_multiplier_.reserve(n);
  models_.reserve(n);
  // Cut points per lookback, in first-seen order; rows sharing a lookback
  // and a percentile (the boosted multipliers) share one cut point.
  std::vector<size_t> row_lookback(n);
  for (size_t i = 0; i < n; ++i) {
    const PercentileExpert& row = rows[i];
    expert_names_.push_back(
        PercentileStrategy(row.lookback_s, row.percentile, row.multiplier)
            .name());
    expert_multiplier_.push_back(row.multiplier);
    models_.emplace_back(cost_);
    size_t g = 0;
    while (g < lookbacks_.size() &&
           lookbacks_[g].lookback_s != row.lookback_s) {
      ++g;
    }
    if (g == lookbacks_.size()) {
      lookbacks_.emplace_back();
      lookbacks_.back().lookback_s = row.lookback_s;
    }
    std::vector<double>& cuts = lookbacks_[g].percentiles;
    const size_t c = static_cast<size_t>(
        std::find(cuts.begin(), cuts.end(), row.percentile) - cuts.begin());
    if (c == cuts.size()) cuts.push_back(row.percentile);
    row_lookback[i] = g;
    expert_cut_.push_back(c);
  }
  size_t num_cuts = 0;
  for (LookbackCuts& lb : lookbacks_) {
    lb.first_cut = num_cuts;
    lb.ranks.assign(lb.percentiles.size(), 0);
    num_cuts += lb.percentiles.size();
  }
  for (size_t i = 0; i < n; ++i) {
    expert_cut_[i] += lookbacks_[row_lookback[i]].first_cut;
  }
  cut_values_.assign(num_cuts, 0);
  targets_.assign(n, 0);
  interval_cost_.assign(n, 0.0);
  penalties_.assign(n, 0.0);
  mw_ = std::make_unique<MultiplicativeWeights>(n, options_.epsilon,
                                                options_.weight_floor_ratio);
  chosen_ = n / 2;  // arbitrary deterministic initial expert
}

DynamicStrategy::~DynamicStrategy() = default;

const std::string& DynamicStrategy::chosen_expert_name() const {
  return expert_names_[chosen_];
}

double DynamicStrategy::ExpertCost(size_t i) const {
  CACKLE_CHECK_LT(i, models_.size());
  return models_[i].total_cost();
}

void DynamicStrategy::SetObservability(MetricsRegistry* metrics,
                                       Tracer* tracer) {
  metrics_sink_ = metrics;
  tracer_sink_ = tracer;
}

void DynamicStrategy::ObserveTenantDemand(
    const std::vector<TenantDemand>& mix) {
  if (!options_.tenant_aware) return;
  const int64_t now = tenant_observations_++;
  const int64_t expire_before = now - options_.tenant_window_s;
  // Append this observation to each active tenant's monotonic deque.
  for (const TenantDemand& td : mix) {
    auto& peaks = tenant_peaks_[td.tenant];
    while (!peaks.empty() && peaks.back().second <= td.demand) {
      peaks.pop_back();
    }
    peaks.emplace_back(now, td.demand);
  }
  // Expire samples that fell out of the window; a tenant idle for a full
  // window drops out entirely (its deque drains because zero-demand
  // seconds append nothing).
  for (auto it = tenant_peaks_.begin(); it != tenant_peaks_.end();) {
    auto& peaks = it->second;
    while (!peaks.empty() && peaks.front().first <= expire_before) {
      peaks.pop_front();
    }
    it = peaks.empty() ? tenant_peaks_.erase(it) : ++it;
  }
}

int64_t DynamicStrategy::TenantIsolationFloor() const {
  if (!options_.tenant_aware || tenant_peaks_.empty()) return 0;
  int64_t sum_of_peaks = 0;
  for (const auto& [tenant, peaks] : tenant_peaks_) {
    sum_of_peaks += peaks.front().second;
  }
  return static_cast<int64_t>(
      std::ceil(options_.tenant_headroom * static_cast<double>(sum_of_peaks)));
}

void DynamicStrategy::ComputeTargets(const WorkloadHistory& history) {
  for (LookbackCuts& lb : lookbacks_) {
    const std::vector<int64_t>& sorted = history.Sorted(lb.lookback_s);
    const int64_t n = static_cast<int64_t>(sorted.size());
    int64_t* values = cut_values_.data() + lb.first_cut;
    if (n == 0) {
      std::fill(values, values + lb.percentiles.size(), 0);
      continue;
    }
    if (n != lb.ranked_n) {
      for (size_t c = 0; c < lb.percentiles.size(); ++c) {
        lb.ranks[c] = WorkloadHistory::NearestRank(lb.percentiles[c], n);
      }
      lb.ranked_n = n;
    }
    for (size_t c = 0; c < lb.ranks.size(); ++c) {
      values[c] = sorted[static_cast<size_t>(lb.ranks[c] - 1)];
    }
  }
  // The expression PercentileStrategy::Target applies; with multiplier 1
  // the product is already integral, so the ceil is skipped.
  for (size_t i = 0; i < targets_.size(); ++i) {
    const double value = static_cast<double>(cut_values_[expert_cut_[i]]);
    const double m = expert_multiplier_[i];
    targets_[i] = static_cast<int64_t>(m == 1.0 ? value
                                                : std::ceil(value * m));
  }
}

int64_t DynamicStrategy::Target(const WorkloadHistory& history) {
  const int64_t demand = history.Latest();
  // Evaluate every expert on this second: its target, and what it would
  // have cost (allocation under the known startup time + cost model).
  ComputeTargets(history);
  const AllocationModel::Environment env =
      AllocationModel::EnvironmentOf(*cost_);
  for (size_t i = 0; i < models_.size(); ++i) {
    const auto step = models_[i].Step(env, targets_[i], demand);
    interval_cost_[i] += step.vm_cost + step.elastic_cost;
  }
  ++seconds_seen_;

  if (seconds_seen_ % options_.update_interval_s == 0) {
    // Normalize interval costs into [0, 1] penalties as *relative regret*:
    // penalty_i = (cost_i - best) / best, clamped to 1. An expert 10% more
    // expensive than the best gets 0.1 every round, so the weights
    // concentrate on the near-optimal cluster quickly; normalizing by the
    // worst expert instead would compress all useful distinctions to ~0
    // whenever one wild expert (e.g. a 20x multiplier) dominates the range.
    double max_cost = 0.0;
    double min_cost = interval_cost_.empty() ? 0.0 : interval_cost_[0];
    for (double c : interval_cost_) {
      max_cost = std::max(max_cost, c);
      min_cost = std::min(min_cost, c);
    }
    std::fill(penalties_.begin(), penalties_.end(), 0.0);
    if (max_cost > min_cost) {
      const double denom = min_cost > 0.0 ? min_cost : max_cost;
      for (size_t i = 0; i < penalties_.size(); ++i) {
        penalties_[i] =
            std::min(1.0, (interval_cost_[i] - min_cost) / denom);
      }
    }
    mw_->Update(penalties_);
    std::fill(interval_cost_.begin(), interval_cost_.end(), 0.0);
    const size_t next =
        options_.sample_expert ? mw_->Sample(&rng_) : mw_->Best();
    if (next != chosen_) ++switches_;
    chosen_ = next;
    // The meta-strategy runs every update interval (five seconds in the
    // paper); the executed target is re-computed here and held in between,
    // which keeps the fleet from churning on per-second percentile noise.
    last_target_ = targets_[chosen_];
    // Decision snapshot (pure bookkeeping; must not affect the target).
    if (metrics_sink_ != nullptr) {
      metrics_sink_->AddCounter(metric_names::kStrategyUpdates, 1);
      metrics_sink_->SetCounter(metric_names::kStrategyExpertSwitches,
                                switches_);
      metrics_sink_->SetGauge(metric_names::kStrategyChosenExpert,
                              static_cast<double>(chosen_));
      metrics_sink_->SetGauge(metric_names::kStrategyChosenProbability,
                              mw_->Probability(chosen_));
      metrics_sink_->Observe(metric_names::kStrategyTarget,
                             static_cast<double>(last_target_));
    }
    if (tracer_sink_ != nullptr && tracer_sink_->enabled()) {
      const SpanId decision = tracer_sink_->Instant(
          "strategy.decision", seconds_seen_ * 1000);
      tracer_sink_->Tag(decision, "expert", expert_names_[chosen_]);
      tracer_sink_->Tag(decision, "target", std::to_string(last_target_));
      tracer_sink_->Tag(decision, "probability",
                        std::to_string(mw_->Probability(chosen_)));
    }
  } else if (seconds_seen_ <= 1) {
    last_target_ = targets_[chosen_];
  }
  // Multi-tenant isolation floor: never provision below what every tenant
  // needs to replay its recent burst simultaneously. Zero (a no-op on the
  // max) unless ObserveTenantDemand was fed a mix this window.
  return std::max(last_target_, TenantIsolationFloor());
}

}  // namespace cackle
