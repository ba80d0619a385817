#ifndef CACKLE_STRATEGY_STRATEGY_H_
#define CACKLE_STRATEGY_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cost_model.h"
#include "strategy/workload_history.h"

namespace cackle {

class MetricsRegistry;
class Tracer;

/// \brief One tenant's share of the current second's demand. The engine
/// feeds the per-tenant breakdown of the aggregate demand sample to
/// tenant-aware strategies; the sum over a snapshot equals the aggregate.
struct TenantDemand {
  int32_t tenant = 0;
  int64_t demand = 0;
};

/// \brief A provisioning strategy: maps the observed workload history to a
/// target number of provisioned VMs (Section 4 of the paper).
///
/// Target() is invoked once per simulated second with the history already
/// containing that second's demand sample. Strategies must be deterministic
/// functions of the history (the dynamic meta-strategy carries its own
/// seeded RNG).
class ProvisioningStrategy {
 public:
  virtual ~ProvisioningStrategy() = default;

  /// Display name, e.g. "fixed_500", "mean_2", "p80_x1.5_lb300".
  virtual std::string name() const = 0;

  /// Target VM count for the next second.
  virtual int64_t Target(const WorkloadHistory& history) = 0;

  /// Per-tenant breakdown of the demand sample about to be Target()ed,
  /// ascending tenant order, zero-demand tenants omitted. Called by
  /// multi-tenant coordinators immediately before Target(); never called in
  /// single-tenant runs, so ignoring it (the default) preserves the
  /// single-tenant behaviour exactly.
  virtual void ObserveTenantDemand(const std::vector<TenantDemand>& mix) {
    (void)mix;
  }

  /// Attaches observability sinks for decision snapshots (both non-null;
  /// a disabled tracer no-ops). Recording is pure bookkeeping — it must
  /// never change what Target() returns. Default: ignore.
  virtual void SetObservability(MetricsRegistry* metrics, Tracer* tracer) {
    (void)metrics;
    (void)tracer;
  }
};

/// \brief `fixed_x`: a constant provisioning chosen up front (Section 4.2).
/// fixed_0 runs the entire workload on the elastic pool (pure Starling).
class FixedStrategy : public ProvisioningStrategy {
 public:
  explicit FixedStrategy(int64_t target) : target_(target) {}
  std::string name() const override {
    return "fixed_" + std::to_string(target_);
  }
  int64_t Target(const WorkloadHistory&) override { return target_; }

 private:
  int64_t target_;
};

/// \brief `mean_y`: mean demand of the trailing window times a constant
/// multiplier (Section 4.3 / 5.1; the paper's window is five minutes).
class MeanStrategy : public ProvisioningStrategy {
 public:
  MeanStrategy(double multiplier, int64_t lookback_s = 300)
      : multiplier_(multiplier), lookback_s_(lookback_s) {}
  std::string name() const override;
  int64_t Target(const WorkloadHistory& history) override;

 private:
  double multiplier_;
  int64_t lookback_s_;
};

/// \brief `predictive`: linear regression over the trailing window,
/// extrapolated to the moment newly requested VMs would come online; the
/// target is the maximum of the predicted demand over that horizon
/// (Section 5.1).
class PredictiveStrategy : public ProvisioningStrategy {
 public:
  PredictiveStrategy(SimTimeMs vm_startup_ms, int64_t lookback_s = 300)
      : horizon_s_(vm_startup_ms / 1000), lookback_s_(lookback_s) {}
  std::string name() const override { return "predictive"; }
  int64_t Target(const WorkloadHistory& history) override;

 private:
  int64_t horizon_s_;
  int64_t lookback_s_;
  // Regression inputs, reused across calls.
  std::vector<double> xs_;
  std::vector<double> ys_;
};

/// \brief Percentile strategy (Section 4.4.5): the p-th percentile of the
/// last `lookback_s` seconds of demand, times `multiplier`.
class PercentileStrategy : public ProvisioningStrategy {
 public:
  PercentileStrategy(int64_t lookback_s, double percentile, double multiplier)
      : lookback_s_(lookback_s), percentile_(percentile),
        multiplier_(multiplier) {}
  std::string name() const override;
  int64_t Target(const WorkloadHistory& history) override;

  int64_t lookback_s() const { return lookback_s_; }
  double percentile() const { return percentile_; }
  double multiplier() const { return multiplier_; }

 private:
  int64_t lookback_s_;
  double percentile_;
  double multiplier_;
};

/// \brief Options controlling the strategy family of the dynamic
/// meta-strategy (Section 4.4.5).
struct FamilyOptions {
  /// Lookbacks from 10 seconds to an hour.
  std::vector<int64_t> lookbacks_s = WorkloadHistory::DefaultLookbacks();
  /// Percentiles 1..100, each with multiplier 1.0.
  int percentile_lo = 1;
  int percentile_hi = 100;
  int percentile_step = 1;
  /// Additional 80th-percentile strategies with multipliers above 1 so the
  /// family can provision more than anything seen in the history (needed
  /// for increasing workloads).
  double boosted_percentile = 80.0;
  std::vector<double> boost_multipliers = {1.1,  1.25, 1.5, 2.0,  3.0, 4.0,
                                           5.0,  7.0,  10.0, 15.0, 20.0};
};

/// One expert of the percentile family: the `percentile`-th percentile of
/// the last `lookback_s` seconds of demand, times `multiplier`.
struct PercentileExpert {
  int64_t lookback_s = 0;
  double percentile = 0.0;
  double multiplier = 1.0;
};

/// The percentile family in its canonical order: per lookback, the
/// percentile grid (multiplier 1), then the boosted percentile with each
/// boost multiplier. The multiplicative-weights sampler depends on this
/// order.
std::vector<PercentileExpert> PercentileFamilyRows(
    const FamilyOptions& options = FamilyOptions());

/// Builds the percentile strategy family, one PercentileStrategy per row of
/// PercentileFamilyRows(); several hundred experts with the default options.
std::vector<std::unique_ptr<ProvisioningStrategy>> BuildPercentileFamily(
    const FamilyOptions& options = FamilyOptions());

}  // namespace cackle

#endif  // CACKLE_STRATEGY_STRATEGY_H_
