#include "strategy/strategy.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stats.h"
#include "common/table_printer.h"

namespace cackle {

std::string MeanStrategy::name() const {
  // Built with append() rather than operator+ chains: GCC 12's -O3
  // -Wrestrict false-positives on the temporary produced by
  // `"literal" + std::string`, and the append form sidesteps it (and a
  // temporary) entirely.
  std::string n = "mean_";
  n += FormatDouble(multiplier_, 1);
  if (n.size() >= 2 && n.compare(n.size() - 2, 2, ".0") == 0) {
    n.resize(n.size() - 2);
  }
  return n;
}

int64_t MeanStrategy::Target(const WorkloadHistory& history) {
  const double mean = history.Mean(lookback_s_);
  return static_cast<int64_t>(std::ceil(mean * multiplier_));
}

int64_t PredictiveStrategy::Target(const WorkloadHistory& history) {
  const int64_t n = std::min<int64_t>(history.size(), lookback_s_);
  if (n == 0) return 0;
  xs_.clear();
  ys_.clear();
  const int64_t start = history.size() - n;
  for (int64_t i = 0; i < n; ++i) {
    xs_.push_back(static_cast<double>(i));
    ys_.push_back(static_cast<double>(history.At(start + i)));
  }
  const LinearFit fit = FitLine(xs_, ys_);
  // Predict demand out to when VMs requested now would start, and target
  // the maximum of the prediction over that horizon (the fit's slope makes
  // this either the current fitted value or the horizon endpoint).
  const double at_now = fit.At(static_cast<double>(n - 1));
  const double at_horizon = fit.At(static_cast<double>(n - 1 + horizon_s_));
  const double target = std::max(at_now, at_horizon);
  return std::max<int64_t>(0, static_cast<int64_t>(std::ceil(target)));
}

std::string PercentileStrategy::name() const {
  // Append form for the same -Wrestrict reason as MeanStrategy::name().
  std::string n = "p";
  n += std::to_string(static_cast<int>(percentile_));
  if (multiplier_ != 1.0) {
    n += "_x";
    n += FormatDouble(multiplier_, 2);
  }
  n += "_lb";
  n += std::to_string(lookback_s_);
  return n;
}

int64_t PercentileStrategy::Target(const WorkloadHistory& history) {
  const int64_t pct = history.Percentile(lookback_s_, percentile_);
  return static_cast<int64_t>(
      std::ceil(static_cast<double>(pct) * multiplier_));
}

std::vector<PercentileExpert> PercentileFamilyRows(
    const FamilyOptions& options) {
  std::vector<PercentileExpert> rows;
  for (int64_t lb : options.lookbacks_s) {
    for (int p = options.percentile_lo; p <= options.percentile_hi;
         p += options.percentile_step) {
      rows.push_back(PercentileExpert{lb, static_cast<double>(p), 1.0});
    }
    for (double m : options.boost_multipliers) {
      rows.push_back(PercentileExpert{lb, options.boosted_percentile, m});
    }
  }
  CACKLE_CHECK(!rows.empty());
  return rows;
}

std::vector<std::unique_ptr<ProvisioningStrategy>> BuildPercentileFamily(
    const FamilyOptions& options) {
  std::vector<std::unique_ptr<ProvisioningStrategy>> family;
  for (const PercentileExpert& row : PercentileFamilyRows(options)) {
    family.push_back(std::make_unique<PercentileStrategy>(
        row.lookback_s, row.percentile, row.multiplier));
  }
  return family;
}

}  // namespace cackle
