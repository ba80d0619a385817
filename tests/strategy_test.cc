#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "strategy/allocation_model.h"
#include "strategy/cost_calculator.h"
#include "strategy/dynamic_strategy.h"
#include "strategy/multiplicative_weights.h"
#include "strategy/oracle.h"
#include "strategy/shuffle_provisioner.h"
#include "strategy/strategy.h"
#include "strategy/workload_history.h"

namespace cackle {
namespace {

// ---------------------------------------------------------------------------
// WorkloadHistory
// ---------------------------------------------------------------------------

TEST(WorkloadHistoryTest, PercentileOverWindowMatchesBruteForce) {
  // Every percentile 1..100 over every default lookback, from the first
  // sample through the warm-up (history shorter than the window) into the
  // steady state where each append also evicts. The demand walks a small
  // range with jumps, so windows hold many ties and appends move the
  // sorted entries in both directions.
  const std::vector<int64_t>& lookbacks = WorkloadHistory::DefaultLookbacks();
  WorkloadHistory history;
  Rng rng(1);
  std::vector<int64_t> raw;
  int64_t d = 50;
  for (int i = 0; i < 3600 + 400; ++i) {
    d = std::max<int64_t>(0, d + rng.NextInt(-3, 3));
    if (rng.NextBounded(50) == 0) d = static_cast<int64_t>(rng.NextBounded(400));
    history.Append(d);
    raw.push_back(d);
    for (int64_t lb : lookbacks) {
      const int64_t n = std::min<int64_t>(lb, static_cast<int64_t>(raw.size()));
      std::vector<int64_t> window(raw.end() - n, raw.end());
      std::sort(window.begin(), window.end());
      ASSERT_EQ(history.Sorted(lb), window) << "i=" << i << " lb=" << lb;
      for (int p = 1; p <= 100; ++p) {
        int64_t rank = static_cast<int64_t>(
            (p / 100.0) * static_cast<double>(n) + 0.9999999);
        rank = std::clamp<int64_t>(rank, 1, n);
        ASSERT_EQ(history.Percentile(lb, p),
                  window[static_cast<size_t>(rank - 1)])
            << "i=" << i << " lb=" << lb << " p=" << p;
      }
      ASSERT_EQ(history.Max(lb), window.back());
      double sum = 0;
      for (int64_t v : window) sum += static_cast<double>(v);
      ASSERT_NEAR(history.Mean(lb), sum / static_cast<double>(n), 1e-9);
    }
  }
}

TEST(WorkloadHistoryTest, EmptyHistoryReturnsZero) {
  WorkloadHistory history;
  EXPECT_EQ(history.Percentile(60, 50), 0);
  EXPECT_EQ(history.Latest(), 0);
  EXPECT_DOUBLE_EQ(history.Mean(300), 0.0);
}

TEST(WorkloadHistoryTest, ClampsHugeDemand) {
  WorkloadHistory history({10}, /*demand_domain=*/100);
  history.Append(1'000'000);
  EXPECT_EQ(history.Latest(), 99);
  EXPECT_EQ(history.clamped_samples(), 1);
}

TEST(WorkloadHistoryTest, UnregisteredLookbackMeanFallsBack) {
  WorkloadHistory history({10});
  for (int i = 1; i <= 20; ++i) history.Append(i);
  // Mean over an unregistered 5-second lookback: (16..20)/5 = 18.
  EXPECT_DOUBLE_EQ(history.Mean(5), 18.0);
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

TEST(StrategyTest, FixedIgnoresHistory) {
  FixedStrategy s(500);
  WorkloadHistory history;
  EXPECT_EQ(s.Target(history), 500);
  history.Append(10'000);
  EXPECT_EQ(s.Target(history), 500);
  EXPECT_EQ(s.name(), "fixed_500");
}

TEST(StrategyTest, MeanMultiplies) {
  MeanStrategy s(2.0, 300);
  WorkloadHistory history;
  for (int i = 0; i < 10; ++i) history.Append(50);
  EXPECT_EQ(s.Target(history), 100);
  EXPECT_EQ(s.name(), "mean_2");
}

TEST(StrategyTest, PercentileStrategyNameAndTarget) {
  PercentileStrategy s(60, 80.0, 1.5);
  WorkloadHistory history;
  for (int64_t d = 1; d <= 100; ++d) history.Append(d);
  // p80 over the last 60 samples (41..100) = 88; x1.5 -> 132.
  EXPECT_EQ(s.Target(history), 132);
  EXPECT_EQ(s.name(), "p80_x1.50_lb60");
}

TEST(StrategyTest, PredictiveExtrapolatesRisingLoad) {
  CostModel cost;
  PredictiveStrategy s(cost.vm_startup_ms, 300);
  WorkloadHistory history;
  for (int i = 0; i < 100; ++i) history.Append(10 * i);  // slope 10/s
  // Prediction at now ~ 990; at now + 180 s, ~ 990 + 1800.
  const int64_t target = s.Target(history);
  EXPECT_NEAR(static_cast<double>(target), 990.0 + 1800.0, 30.0);
}

TEST(StrategyTest, PredictiveFallingLoadUsesCurrent) {
  CostModel cost;
  PredictiveStrategy s(cost.vm_startup_ms, 300);
  WorkloadHistory history;
  for (int i = 100; i > 0; --i) history.Append(10 * i);
  const int64_t target = s.Target(history);
  // Falling slope: the max of fitted now vs horizon is the fitted "now".
  EXPECT_NEAR(static_cast<double>(target), 10.0, 30.0);
  EXPECT_GE(target, 0);
}

TEST(StrategyTest, FamilyHasSeveralHundredExperts) {
  auto family = BuildPercentileFamily();
  // 6 lookbacks x (100 percentiles + 11 boosted multipliers) = 666.
  EXPECT_EQ(family.size(), 666u);
  // Family includes strategies that provision above anything in history
  // (multiplier > 1), required for increasing workloads (Section 4.4.5).
  bool has_boost = false;
  for (const auto& s : family) {
    auto* p = dynamic_cast<PercentileStrategy*>(s.get());
    ASSERT_NE(p, nullptr);
    if (p->multiplier() > 1.0) has_boost = true;
  }
  EXPECT_TRUE(has_boost);
}

std::vector<int64_t> SinusoidDemand(int64_t seconds, int64_t period_s,
                                    double mean) {
  std::vector<int64_t> demand(static_cast<size_t>(seconds));
  for (int64_t s = 0; s < seconds; ++s) {
    const double v =
        mean * (1.0 + std::sin(2.0 * M_PI * static_cast<double>(s) /
                               static_cast<double>(period_s)));
    demand[static_cast<size_t>(s)] = static_cast<int64_t>(std::max(0.0, v));
  }
  return demand;
}

// ---------------------------------------------------------------------------
// AllocationModel vs a brute-force reference
// ---------------------------------------------------------------------------

/// Straightforward per-VM reference implementation of the allocation and
/// billing rules, used to validate the incremental model.
struct ReferenceAllocation {
  explicit ReferenceAllocation(const CostModel* cost)
      : startup_s(cost->vm_startup_ms / 1000),
        min_billing_s(cost->vm_min_billing_ms / 1000),
        vm_price(cost->VmCostPerSecond()),
        elastic_price(cost->ElasticCostPerSecond()) {}

  struct Vm {
    int64_t started;
  };

  int64_t startup_s;
  int64_t min_billing_s;
  double vm_price;
  double elastic_price;
  std::deque<std::pair<int64_t, int64_t>> pending;  // (ready, count)
  std::deque<Vm> running;
  double vm_cost = 0, elastic_cost = 0;
  int64_t total_vm_seconds = 0;
  int64_t now = 0;

  int64_t allocated() const {
    int64_t p = 0;
    for (auto& [r, c] : pending) p += c;
    return p + static_cast<int64_t>(running.size());
  }

  int64_t Step(int64_t target, int64_t demand) {
    while (!pending.empty() && pending.front().first <= now) {
      for (int64_t i = 0; i < pending.front().second; ++i) {
        running.push_back({now});
      }
      pending.pop_front();
    }
    if (target > allocated()) {
      if (startup_s == 0) {
        for (int64_t i = allocated(); i < target; ++i) running.push_back({now});
      } else {
        pending.emplace_back(now + startup_s, target - allocated());
      }
    } else {
      while (allocated() > target && !pending.empty()) {
        auto& [r, c] = pending.back();
        --c;
        if (c == 0) pending.pop_back();
      }
      int64_t idle =
          static_cast<int64_t>(running.size()) - std::min<int64_t>(
              demand, static_cast<int64_t>(running.size()));
      // Terminate only idle VMs that met their minimum billing time.
      while (allocated() > target && idle > 0 && !running.empty() &&
             now - running.front().started >= min_billing_s) {
        running.pop_front();
        --idle;
      }
    }
    const int64_t avail = static_cast<int64_t>(running.size());
    vm_cost += static_cast<double>(avail) * vm_price;
    total_vm_seconds += avail;
    elastic_cost +=
        static_cast<double>(std::max<int64_t>(0, demand - avail)) *
        elastic_price;
    ++now;
    return avail;
  }

  void Finish() {
    pending.clear();
    while (!running.empty()) {
      const Vm vm = running.front();
      running.pop_front();
      if (now - vm.started < min_billing_s) {
        vm_cost += static_cast<double>(min_billing_s - (now - vm.started)) *
                   vm_price;
        total_vm_seconds += min_billing_s - (now - vm.started);
      }
    }
  }
};

class AllocationModelPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(AllocationModelPropertyTest, MatchesReferenceOnRandomTraces) {
  CostModel cost;
  Rng rng(GetParam());
  // Randomize environment a little too.
  cost.vm_startup_ms = rng.NextInt(0, 4) * 60'000;
  AllocationModel model(&cost);
  ReferenceAllocation ref(&cost);
  int64_t demand = 50;
  int64_t target = 0;
  for (int s = 0; s < 3000; ++s) {
    demand = std::max<int64_t>(
        0, demand + rng.NextInt(-20, 20));
    if (s % 7 == 0) target = rng.NextInt(0, 120);
    const auto step = model.Step(target, demand);
    const int64_t ref_avail = ref.Step(target, demand);
    ASSERT_EQ(step.available, ref_avail) << "second " << s;
  }
  model.Finish();
  ref.Finish();
  EXPECT_NEAR(model.vm_cost(), ref.vm_cost, 1e-9);
  EXPECT_NEAR(model.elastic_cost(), ref.elastic_cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationModelPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(AllocationModelTest, RunLengthFleetMatchesPerVmReferenceExactly) {
  // A 40k-VM rise and fall: requests land in hundreds of start-second runs,
  // drops cancel pending requests and then split the oldest run, and
  // Finish() charges minimum billing to the youngest runs. Every cost
  // figure must equal the per-VM reference exactly, not approximately.
  CostModel cost;
  cost.vm_startup_ms = 20'000;
  cost.vm_min_billing_ms = 90'000;
  AllocationModel model(&cost);
  ReferenceAllocation ref(&cost);
  Rng rng(40'000);
  int64_t target = 0;
  for (int64_t s = 0; s < 900; ++s) {
    if (s < 200) {
      target += 200 + rng.NextInt(-50, 50);  // rise to ~40k
    } else if (s < 260) {
      target = 40'000 + rng.NextInt(-500, 500);
    } else if (s == 260) {
      target = 25'000;  // sharp drop: cancels pending, splits runs
    } else if (s < 500) {
      target = std::max<int64_t>(0, target - rng.NextInt(0, 300));
    } else if (s < 520) {
      target += rng.NextInt(0, 2'000);  // short re-rise
    } else if (s < 860) {
      target = std::max<int64_t>(0, target - rng.NextInt(0, 400));
    } else {
      target += 500;  // late rise: young VMs owe minimum billing at Finish
    }
    const int64_t demand =
        std::max<int64_t>(0, target / 2 + rng.NextInt(-3'000, 3'000));
    const auto step = model.Step(target, demand);
    const int64_t ref_avail = ref.Step(target, demand);
    ASSERT_EQ(step.available, ref_avail) << "second " << s;
    ASSERT_EQ(model.available(), ref_avail) << "second " << s;
    ASSERT_EQ(model.vm_cost(), ref.vm_cost) << "second " << s;
    ASSERT_EQ(model.elastic_cost(), ref.elastic_cost) << "second " << s;
    ASSERT_EQ(model.total_vm_seconds(), ref.total_vm_seconds)
        << "second " << s;
  }
  model.Finish();
  ref.Finish();
  EXPECT_EQ(model.available(), 0);
  EXPECT_EQ(model.vm_cost(), ref.vm_cost);
  EXPECT_EQ(model.elastic_cost(), ref.elastic_cost);
  EXPECT_EQ(model.total_vm_seconds(), ref.total_vm_seconds);
}

TEST(AllocationModelTest, StartupDelayHonored) {
  CostModel cost;  // 180 s startup
  AllocationModel model(&cost);
  for (int s = 0; s < 180; ++s) {
    EXPECT_EQ(model.Step(10, 0).available, 0) << s;
  }
  EXPECT_EQ(model.Step(10, 0).available, 10);
  model.Finish();
}

TEST(AllocationModelTest, ZeroStartupImmediate) {
  CostModel cost;
  cost.vm_startup_ms = 0;
  AllocationModel model(&cost);
  EXPECT_EQ(model.Step(7, 0).available, 7);
  model.Finish();
}

TEST(AllocationModelTest, BusyVmsNotTerminated) {
  CostModel cost;
  cost.vm_startup_ms = 0;
  AllocationModel model(&cost);
  model.Step(10, 10);
  // Dropping the target with all VMs busy keeps them allocated.
  EXPECT_EQ(model.Step(0, 10).available, 10);
  // Demand falls, but the VMs are inside their minimum billing window, so
  // there is no value in stopping them yet.
  EXPECT_EQ(model.Step(0, 4).available, 10);
  // Once the minimum billing time has elapsed, idle VMs terminate; busy
  // ones (demand = 4) stay.
  for (int s = 3; s < 60; ++s) model.Step(0, 4);
  EXPECT_EQ(model.Step(0, 4).available, 4);
  model.Finish();
}

TEST(AllocationModelTest, OverflowBilledToElastic) {
  CostModel cost;
  cost.vm_startup_ms = 0;
  AllocationModel model(&cost);
  const auto step = model.Step(10, 25);
  EXPECT_EQ(step.available, 10);
  EXPECT_NEAR(step.elastic_cost, 15 * cost.ElasticCostPerSecond(), 1e-12);
  EXPECT_NEAR(step.vm_cost, 10 * cost.VmCostPerSecond(), 1e-12);
  model.Finish();
}

// ---------------------------------------------------------------------------
// MultiplicativeWeights
// ---------------------------------------------------------------------------

TEST(MultiplicativeWeightsTest, WeightsStayPositiveAndOrdered) {
  MultiplicativeWeights mw(3, 0.5);
  for (int round = 0; round < 200; ++round) {
    mw.Update({1.0, 0.5, 0.0});
  }
  EXPECT_GT(mw.weights()[0], 0.0);
  EXPECT_LT(mw.Probability(0), mw.Probability(1));
  EXPECT_LT(mw.Probability(1), mw.Probability(2));
  EXPECT_EQ(mw.Best(), 2u);
  EXPECT_NEAR(mw.Probability(0) + mw.Probability(1) + mw.Probability(2), 1.0,
              1e-12);
}

TEST(MultiplicativeWeightsTest, SampleFollowsDistribution) {
  MultiplicativeWeights mw(2, 0.5);
  for (int i = 0; i < 20; ++i) mw.Update({1.0, 0.0});
  Rng rng(5);
  int second = 0;
  for (int i = 0; i < 10000; ++i) second += (mw.Sample(&rng) == 1);
  EXPECT_GT(second, 9900);
}

TEST(MultiplicativeWeightsTest, WeightFloorBoundsRatio) {
  MultiplicativeWeights mw(4, 0.5, /*weight_floor_ratio=*/1e-3);
  for (int i = 0; i < 500; ++i) mw.Update({1.0, 1.0, 1.0, 0.0});
  // Without the floor, the first three weights would be ~(0.5)^500; with it
  // they stay at one thousandth of the best.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(mw.weights()[i], 1e-3 * mw.weights()[3] * 0.999);
    EXPECT_LT(mw.Probability(i), 2e-3);
  }
}

TEST(MultiplicativeWeightsTest, FloorSpeedsUpEnvironmentSwitch) {
  // Expert 0 is best for 1000 rounds, then expert 1 becomes best. With the
  // floor, expert 1 regains the majority probability within ~100 rounds.
  MultiplicativeWeights mw(2, 0.25, /*weight_floor_ratio=*/1e-6);
  for (int i = 0; i < 1000; ++i) mw.Update({0.0, 1.0});
  EXPECT_EQ(mw.Best(), 0u);
  int rounds_to_switch = 0;
  while (mw.Probability(1) < 0.5 && rounds_to_switch < 1000) {
    mw.Update({1.0, 0.0});
    ++rounds_to_switch;
  }
  EXPECT_LT(rounds_to_switch, 120);
}

TEST(MultiplicativeWeightsTest, PenaltiesClamped) {
  MultiplicativeWeights mw(2, 0.5);
  mw.Update({5.0, -3.0});  // clamped to {1, 0}
  EXPECT_LT(mw.weights()[0], mw.weights()[1]);
  EXPECT_GT(mw.weights()[0], 0.0);
}

/// Property: expected cumulative penalty of MW is within the textbook regret
/// bound of the best expert on adversarial random penalty sequences.
class MwRegretTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MwRegretTest, RegretBoundHolds) {
  const size_t n = 8;
  const double eps = 0.25;
  MultiplicativeWeights mw(n, eps);
  Rng rng(GetParam());
  const int rounds = 600;
  std::vector<double> cumulative(n, 0.0);
  double expected_alg = 0.0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> penalties(n);
    for (size_t i = 0; i < n; ++i) penalties[i] = rng.NextDouble();
    // Expected algorithm penalty under the *pre-update* distribution.
    for (size_t i = 0; i < n; ++i) {
      expected_alg += mw.Probability(i) * penalties[i];
      cumulative[i] += penalties[i];
    }
    mw.Update(penalties);
  }
  const double best = *std::min_element(cumulative.begin(), cumulative.end());
  // Bound: ALG <= (1 + eps) * BEST + ln(n) / eps.
  EXPECT_LE(expected_alg,
            (1.0 + eps) * best + std::log(static_cast<double>(n)) / eps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwRegretTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

TEST(OracleTest, EmptyDemandIsFree) {
  CostModel cost;
  const OracleResult r = ComputeOracleCost({0, 0, 0}, cost);
  EXPECT_DOUBLE_EQ(r.total(), 0.0);
}

TEST(OracleTest, ShortBurstGoesElastic) {
  CostModel cost;  // elastic 6x; breakeven at 10 s
  std::vector<int64_t> demand(100, 0);
  for (int s = 40; s < 45; ++s) demand[static_cast<size_t>(s)] = 1;  // 5 s
  const OracleResult r = ComputeOracleCost(demand, cost);
  EXPECT_DOUBLE_EQ(r.vm_cost, 0.0);
  EXPECT_NEAR(r.elastic_cost, 5 * cost.ElasticCostPerSecond(), 1e-12);
}

TEST(OracleTest, LongRunGoesVm) {
  CostModel cost;
  std::vector<int64_t> demand(400, 0);
  for (int s = 0; s < 300; ++s) demand[static_cast<size_t>(s)] = 2;
  const OracleResult r = ComputeOracleCost(demand, cost);
  EXPECT_DOUBLE_EQ(r.elastic_cost, 0.0);
  EXPECT_NEAR(r.vm_cost, 2 * 300 * cost.VmCostPerSecond(), 1e-12);
  EXPECT_EQ(r.vm_sessions, 2);
}

TEST(OracleTest, SubMinimumRunBillsMinimumOrElastic) {
  CostModel cost;
  std::vector<int64_t> demand(200, 0);
  for (int s = 0; s < 30; ++s) demand[static_cast<size_t>(s)] = 1;  // 30 s
  const OracleResult r = ComputeOracleCost(demand, cost);
  // VM: 60 s minimum = 60 * vm price; elastic: 30 * 6 * vm price = 180.
  // VM wins.
  EXPECT_NEAR(r.vm_cost, 60 * cost.VmCostPerSecond(), 1e-12);
  EXPECT_DOUBLE_EQ(r.elastic_cost, 0.0);
}

TEST(OracleTest, BridgesShortGapInsteadOfRestart) {
  CostModel cost;
  // Two 90 s runs separated by a 10 s gap: one session spanning 190 s is
  // cheaper than two sessions (180 s billed) only if... it is not: two
  // sessions bill 90+90=180 < 190. The oracle should split.
  std::vector<int64_t> demand(400, 0);
  for (int s = 0; s < 90; ++s) demand[static_cast<size_t>(s)] = 1;
  for (int s = 100; s < 190; ++s) demand[static_cast<size_t>(s)] = 1;
  const OracleResult split = ComputeOracleCost(demand, cost);
  EXPECT_NEAR(split.vm_cost, 180 * cost.VmCostPerSecond(), 1e-12);
  EXPECT_EQ(split.vm_sessions, 2);

  // Two 30 s runs separated by a 10 s gap: separate sessions bill 2x60 s
  // minimum (120 s); one session spans 70 s billed. Bridging wins.
  std::vector<int64_t> demand2(400, 0);
  for (int s = 0; s < 30; ++s) demand2[static_cast<size_t>(s)] = 1;
  for (int s = 40; s < 70; ++s) demand2[static_cast<size_t>(s)] = 1;
  const OracleResult merged = ComputeOracleCost(demand2, cost);
  EXPECT_NEAR(merged.vm_cost, 70 * cost.VmCostPerSecond(), 1e-12);
  EXPECT_EQ(merged.vm_sessions, 1);
}

TEST(OracleTest, ElasticDisabledForcesVm) {
  CostModel cost;
  std::vector<int64_t> demand(100, 0);
  demand[50] = 3;  // 1-second spike
  const OracleResult r = ComputeOracleCost(demand, cost, /*allow_elastic=*/false);
  EXPECT_DOUBLE_EQ(r.elastic_cost, 0.0);
  EXPECT_NEAR(r.vm_cost, 3 * 60 * cost.VmCostPerSecond(), 1e-12);
}

TEST(OracleTest, EqualPricesPreferNoVmPenalty) {
  CostModel cost;
  cost.elastic_cost_per_hour = cost.vm_cost_per_hour;  // premium 1x
  std::vector<int64_t> demand(1000, 5);
  const OracleResult r = ComputeOracleCost(demand, cost);
  // Elastic matches VM second-for-second with no minimum billing: total is
  // exactly demand-seconds at the common price.
  EXPECT_NEAR(r.total(), 5000 * cost.VmCostPerSecond(), 1e-9);
}

/// Brute-force oracle for tiny inputs: enumerate, per layer, all ways to
/// split runs into elastic/VM sessions.
double BruteForceLayerCost(const std::vector<std::pair<int64_t, int64_t>>& runs,
                           const CostModel& cost, size_t i = 0) {
  if (i == runs.size()) return 0.0;
  const double cv = cost.VmCostPerSecond();
  const double ce = cost.ElasticCostPerSecond();
  const int64_t minb = cost.vm_min_billing_ms / 1000;
  double best = (runs[i].second - runs[i].first) * ce +
                BruteForceLayerCost(runs, cost, i + 1);
  for (size_t j = i; j < runs.size(); ++j) {
    const int64_t span = runs[j].second - runs[i].first;
    const double session = static_cast<double>(std::max(span, minb)) * cv;
    best = std::min(best, session + BruteForceLayerCost(runs, cost, j + 1));
  }
  return best;
}

class OraclePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OraclePropertyTest, MatchesBruteForceOnSingleLayer) {
  CostModel cost;
  Rng rng(GetParam());
  cost.elastic_cost_per_hour =
      cost.vm_cost_per_hour * rng.NextDouble(1.0, 12.0);
  // Random 0/1 demand over 600 s with ~8 runs.
  std::vector<int64_t> demand(600, 0);
  std::vector<std::pair<int64_t, int64_t>> runs;
  int64_t t = rng.NextInt(0, 30);
  while (t < 580 && runs.size() < 8) {
    const int64_t len = rng.NextInt(1, 80);
    const int64_t end = std::min<int64_t>(600, t + len);
    for (int64_t s = t; s < end; ++s) demand[static_cast<size_t>(s)] = 1;
    runs.emplace_back(t, end);
    t = end + rng.NextInt(1, 100);
  }
  const OracleResult r = ComputeOracleCost(demand, cost);
  const double brute = BruteForceLayerCost(runs, cost);
  EXPECT_NEAR(r.total(), brute, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OraclePropertyTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110, 111, 112));

/// Brute-force layer cost with the elastic option removed (VM sessions
/// only), for validating allow_elastic=false.
double BruteForceLayerCostVmOnly(
    const std::vector<std::pair<int64_t, int64_t>>& runs,
    const CostModel& cost, size_t i = 0) {
  if (i == runs.size()) return 0.0;
  const double cv = cost.VmCostPerSecond();
  const int64_t minb = cost.vm_min_billing_ms / 1000;
  double best = std::numeric_limits<double>::infinity();
  for (size_t j = i; j < runs.size(); ++j) {
    const int64_t span = runs[j].second - runs[i].first;
    best = std::min(best,
                    static_cast<double>(std::max(span, minb)) * cv +
                        BruteForceLayerCostVmOnly(runs, cost, j + 1));
  }
  return best;
}

class OracleNoElasticTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleNoElasticTest, MatchesVmOnlyBruteForce) {
  CostModel cost;
  Rng rng(GetParam());
  std::vector<int64_t> demand(500, 0);
  std::vector<std::pair<int64_t, int64_t>> runs;
  int64_t t = rng.NextInt(0, 20);
  while (t < 480 && runs.size() < 7) {
    const int64_t end = std::min<int64_t>(500, t + rng.NextInt(1, 90));
    for (int64_t s = t; s < end; ++s) demand[static_cast<size_t>(s)] = 1;
    runs.emplace_back(t, end);
    t = end + rng.NextInt(1, 80);
  }
  const OracleResult r =
      ComputeOracleCost(demand, cost, /*allow_elastic=*/false);
  EXPECT_NEAR(r.total(), BruteForceLayerCostVmOnly(runs, cost), 1e-9);
  EXPECT_DOUBLE_EQ(r.elastic_cost, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleNoElasticTest,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

TEST(DynamicStrategyTest, SettlesOnStationaryWorkload) {
  // Section 4.4.6: "As the history grows, ... the meta-strategy typically
  // settles". Switching becomes rarer once weights concentrate; compare
  // switch counts early vs late on a long stationary sinusoid.
  CostModel cost;
  const auto demand = SinusoidDemand(8 * 3600, 1200, 60);
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  int64_t switches_first_quarter = 0;
  int64_t switches_last_quarter = 0;
  int64_t prev_switches = 0;
  for (size_t s = 0; s < demand.size(); ++s) {
    history.Append(demand[s]);
    dynamic.Target(history);
    const int64_t now_switches = dynamic.expert_switches();
    if (s < demand.size() / 4) {
      switches_first_quarter += now_switches - prev_switches;
    } else if (s >= 3 * demand.size() / 4) {
      switches_last_quarter += now_switches - prev_switches;
    }
    prev_switches = now_switches;
  }
  // Late switching is at most a modest multiple less... concretely: fewer
  // late switches than early ones (weights have concentrated).
  EXPECT_LT(switches_last_quarter, switches_first_quarter);
}

/// Multi-layer property: the oracle must equal the sum of per-layer optima
/// (layers extracted independently here and solved by brute force).
class OracleMultiLayerTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleMultiLayerTest, MatchesSumOfLayerBruteForces) {
  CostModel cost;
  Rng rng(GetParam());
  cost.elastic_cost_per_hour = cost.vm_cost_per_hour * rng.NextDouble(1.5, 9.0);
  // A random walk over levels 0..4, held for random stretches so layer
  // runs have non-trivial lengths and gaps.
  std::vector<int64_t> demand;
  demand.reserve(400);
  int64_t level = 0;
  while (demand.size() < 400) {
    level = std::clamp<int64_t>(level + rng.NextInt(-2, 2), 0, 4);
    const int64_t hold = rng.NextInt(1, 40);
    for (int64_t h = 0; h < hold && demand.size() < 400; ++h) {
      demand.push_back(level);
    }
  }
  double expected = 0.0;
  int64_t max_level = 0;
  for (int64_t d : demand) max_level = std::max(max_level, d);
  for (int64_t k = 1; k <= max_level; ++k) {
    std::vector<std::pair<int64_t, int64_t>> runs;
    int64_t start = -1;
    for (size_t t = 0; t <= demand.size(); ++t) {
      const bool busy = t < demand.size() && demand[t] >= k;
      if (busy && start < 0) start = static_cast<int64_t>(t);
      if (!busy && start >= 0) {
        runs.emplace_back(start, static_cast<int64_t>(t));
        start = -1;
      }
    }
    expected += BruteForceLayerCost(runs, cost);
  }
  const OracleResult r = ComputeOracleCost(demand, cost);
  EXPECT_NEAR(r.total(), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleMultiLayerTest,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

// ---------------------------------------------------------------------------
// Cost calculator + strategies end to end
// ---------------------------------------------------------------------------

TEST(CostCalculatorTest, Fixed0IsPureElastic) {
  CostModel cost;
  const auto demand = SinusoidDemand(3600, 600, 100);
  FixedStrategy fixed0(0);
  const auto eval = EvaluateStrategy(&fixed0, demand, cost);
  EXPECT_DOUBLE_EQ(eval.vm_cost, 0.0);
  int64_t total = 0;
  for (int64_t d : demand) total += d;
  EXPECT_NEAR(eval.elastic_cost,
              static_cast<double>(total) * cost.ElasticCostPerSecond(), 1e-9);
}

TEST(CostCalculatorTest, HugeFixedIsPureVm) {
  CostModel cost;
  const auto demand = SinusoidDemand(3600, 600, 100);
  FixedStrategy fixed(500);
  const auto eval = EvaluateStrategy(&fixed, demand, cost);
  // Even an over-provisioned fixed strategy pays elastic for the demand
  // that arrives during the initial VM startup window (it starts from an
  // empty cluster, like Cackle in Figure 1).
  const int64_t startup_s = cost.vm_startup_ms / 1000;
  int64_t startup_demand = 0;
  for (int64_t s = 0; s < startup_s; ++s) {
    startup_demand += demand[static_cast<size_t>(s)];
  }
  EXPECT_NEAR(eval.elastic_cost,
              static_cast<double>(startup_demand) *
                  cost.ElasticCostPerSecond(),
              1e-9);
  // 500 VMs for (3600 - startup 180) seconds plus the final minimum-billing
  // flush never exceeds the full-hour rental.
  EXPECT_LE(eval.vm_cost, 500 * 3600 * cost.VmCostPerSecond() + 1e-9);
  EXPECT_GE(eval.vm_cost, 500 * 3000 * cost.VmCostPerSecond());
}

TEST(CostCalculatorTest, OracleLowerBoundsAllStrategies) {
  CostModel cost;
  const auto demand = SinusoidDemand(4 * 3600, 1200, 80);
  const double oracle = ComputeOracleCost(demand, cost).total();
  FixedStrategy fixed0(0);
  FixedStrategy fixed100(100);
  MeanStrategy mean2(2.0);
  PredictiveStrategy predictive(CostModel{}.vm_startup_ms);
  for (ProvisioningStrategy* s : std::initializer_list<ProvisioningStrategy*>{
           &fixed0, &fixed100, &mean2, &predictive}) {
    const auto eval = EvaluateStrategy(s, demand, cost);
    EXPECT_GE(eval.total(), oracle - 1e-6) << s->name();
  }
}

TEST(CostCalculatorTest, RecordedSeriesConsistent) {
  CostModel cost;
  const auto demand = SinusoidDemand(1800, 600, 50);
  MeanStrategy mean1(1.0);
  const auto eval = EvaluateStrategy(&mean1, demand, cost, true);
  ASSERT_EQ(eval.target_series.size(), demand.size());
  ASSERT_EQ(eval.allocation_series.size(), demand.size());
  // Allocation never exceeds the running max target (VMs only start after
  // being requested).
  int64_t max_target = 0;
  for (size_t i = 0; i < demand.size(); ++i) {
    max_target = std::max(max_target, eval.target_series[i]);
    EXPECT_LE(eval.allocation_series[i], max_target);
  }
}

TEST(DynamicStrategyTest, TracksSinusoidCheaperThanNaive) {
  CostModel cost;
  const auto demand = SinusoidDemand(6 * 3600, 3600, 60);
  DynamicStrategyOptions opts;
  DynamicStrategy dynamic(&cost, opts);
  FixedStrategy fixed0(0);
  FixedStrategy fixed500(500);
  const double dyn = EvaluateStrategy(&dynamic, demand, cost).total();
  const double f0 = EvaluateStrategy(&fixed0, demand, cost).total();
  const double f500 = EvaluateStrategy(&fixed500, demand, cost).total();
  const double oracle = ComputeOracleCost(demand, cost).total();
  EXPECT_LT(dyn, f0);
  EXPECT_LT(dyn, f500);
  EXPECT_GE(dyn, oracle - 1e-6);
  // Sanity: within a reasonable factor of the oracle on a benign workload.
  EXPECT_LT(dyn, 2.0 * oracle);
}

TEST(DynamicStrategyTest, ExpertsEvaluatedAndSwitched) {
  CostModel cost;
  const auto demand = SinusoidDemand(3600, 900, 40);
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  for (int64_t d : demand) {
    history.Append(d);
    dynamic.Target(history);
  }
  EXPECT_EQ(dynamic.num_experts(), 666u);
  EXPECT_GT(dynamic.ExpertCost(0), 0.0);
  EXPECT_FALSE(dynamic.chosen_expert_name().empty());
  EXPECT_GT(dynamic.weights().rounds(), 0);
}

TEST(DynamicStrategyTest, AdaptsToElasticPremiumChange) {
  // With a 1x premium the best experts under-provision (elastic is free
  // flexibility); with a high premium they provision above the demand. The
  // dynamic strategy's realized VM share should rise with the premium.
  const auto demand = SinusoidDemand(4 * 3600, 1800, 50);
  CostModel cheap_pool;
  cheap_pool.elastic_cost_per_hour = cheap_pool.vm_cost_per_hour;
  CostModel pricey_pool;
  pricey_pool.elastic_cost_per_hour = 30 * pricey_pool.vm_cost_per_hour;
  DynamicStrategy dyn_cheap(&cheap_pool);
  DynamicStrategy dyn_pricey(&pricey_pool);
  const auto eval_cheap = EvaluateStrategy(&dyn_cheap, demand, cheap_pool);
  const auto eval_pricey = EvaluateStrategy(&dyn_pricey, demand, pricey_pool);
  const auto share = [](const StrategyEvaluation& e) {
    return static_cast<double>(e.vm_seconds) /
           static_cast<double>(e.vm_seconds + e.elastic_task_seconds + 1);
  };
  EXPECT_GT(share(eval_pricey), share(eval_cheap));
}

TEST(DynamicStrategyTest, ArgmaxSelectionIsStabler) {
  CostModel cost;
  const auto demand = SinusoidDemand(2 * 3600, 1200, 60);
  DynamicStrategyOptions sample_opts;
  sample_opts.sample_expert = true;
  DynamicStrategyOptions argmax_opts;
  argmax_opts.sample_expert = false;
  DynamicStrategy sampler(&cost, sample_opts);
  DynamicStrategy leader(&cost, argmax_opts);
  const double cs = EvaluateStrategy(&sampler, demand, cost).total();
  const double cl = EvaluateStrategy(&leader, demand, cost).total();
  // Follow-the-leader switches far less and stays cost-competitive.
  EXPECT_LT(leader.expert_switches(), sampler.expert_switches() / 4);
  EXPECT_LT(cl, 1.25 * cs);
}

TEST(AllocationModelTest, LivePriceChangeTakesEffect) {
  // Section 5.3: prices can change mid-workload; the model constructed
  // from a CostModel re-reads prices each second.
  CostModel cost;
  cost.vm_startup_ms = 0;
  AllocationModel model(&cost);
  const auto before = model.Step(10, 0);
  EXPECT_NEAR(before.vm_cost, 10 * 0.03 / 3600.0, 1e-12);
  cost.vm_cost_per_hour = 0.06;  // price doubles
  const auto after = model.Step(10, 0);
  EXPECT_NEAR(after.vm_cost, 10 * 0.06 / 3600.0, 1e-12);
  model.Finish();
}

TEST(DynamicStrategyTest, ShiftsTowardElasticWhenVmPriceRises) {
  // With the premium at 6x the dynamic strategy provisions VMs; when the
  // VM price overshoots the elastic price mid-run, its experts' costs
  // re-rank and the VM share of served demand collapses. (At exact price
  // parity there is no cost pressure either way — the shift shows once
  // elastic is strictly cheaper.)
  CostModel cost;
  const auto demand = SinusoidDemand(6 * 3600, 1800, 80);
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  AllocationModel model(&cost);
  int64_t vm_seconds_cheap = 0;
  int64_t vm_seconds_pricey = 0;
  for (size_t s = 0; s < demand.size(); ++s) {
    if (s == demand.size() / 2) {
      cost.vm_cost_per_hour = 2.0 * cost.elastic_cost_per_hour;
    }
    history.Append(demand[s]);
    const auto step = model.Step(dynamic.Target(history), demand[s]);
    if (s < demand.size() / 2) {
      vm_seconds_cheap += step.available;
    } else {
      vm_seconds_pricey += step.available;
    }
  }
  model.Finish();
  EXPECT_LT(vm_seconds_pricey, vm_seconds_cheap / 2);
}

// ---------------------------------------------------------------------------
// DynamicStrategy's flat expert table vs the per-expert algorithm
// ---------------------------------------------------------------------------

/// The meta-strategy in its straightforward form: one virtual
/// PercentileStrategy and one AllocationModel per expert of
/// BuildPercentileFamily(), a MultiplicativeWeights over them and an
/// Rng(seed). The tenant isolation floor is recomputed by brute force over
/// the last `tenant_window_s` observed mixes.
class ReferenceDynamic {
 public:
  ReferenceDynamic(const CostModel* cost, const DynamicStrategyOptions& options)
      : options_(options), experts_(BuildPercentileFamily(options.family)),
        mw_(experts_.size(), options.epsilon, options.weight_floor_ratio),
        rng_(options.seed) {
    for (size_t i = 0; i < experts_.size(); ++i) models_.emplace_back(cost);
    interval_cost_.assign(experts_.size(), 0.0);
    chosen_ = experts_.size() / 2;
  }

  void ObserveTenantDemand(const std::vector<TenantDemand>& mix) {
    if (options_.tenant_aware) mixes_.push_back(mix);
  }

  int64_t Target(const WorkloadHistory& history) {
    const int64_t demand = history.Latest();
    for (size_t i = 0; i < experts_.size(); ++i) {
      const auto step = models_[i].Step(experts_[i]->Target(history), demand);
      interval_cost_[i] += step.vm_cost + step.elastic_cost;
    }
    ++seconds_;
    if (seconds_ % options_.update_interval_s == 0) {
      double max_cost = 0.0;
      double min_cost = interval_cost_[0];
      for (double c : interval_cost_) {
        max_cost = std::max(max_cost, c);
        min_cost = std::min(min_cost, c);
      }
      std::vector<double> penalties(experts_.size(), 0.0);
      if (max_cost > min_cost) {
        const double denom = min_cost > 0.0 ? min_cost : max_cost;
        for (size_t i = 0; i < experts_.size(); ++i) {
          penalties[i] = std::min(1.0, (interval_cost_[i] - min_cost) / denom);
        }
      }
      mw_.Update(penalties);
      std::fill(interval_cost_.begin(), interval_cost_.end(), 0.0);
      const size_t next =
          options_.sample_expert ? mw_.Sample(&rng_) : mw_.Best();
      if (next != chosen_) ++switches_;
      chosen_ = next;
      last_target_ = experts_[chosen_]->Target(history);
    } else if (seconds_ <= 1) {
      last_target_ = experts_[chosen_]->Target(history);
    }
    return std::max(last_target_, TenantFloor());
  }

  std::string chosen_expert_name() const { return experts_[chosen_]->name(); }
  double ExpertCost(size_t i) const { return models_[i].total_cost(); }
  const MultiplicativeWeights& weights() const { return mw_; }
  int64_t expert_switches() const { return switches_; }

 private:
  int64_t TenantFloor() const {
    std::map<int32_t, int64_t> peaks;
    const size_t window = static_cast<size_t>(options_.tenant_window_s);
    const size_t first = mixes_.size() > window ? mixes_.size() - window : 0;
    for (size_t j = first; j < mixes_.size(); ++j) {
      for (const TenantDemand& td : mixes_[j]) {
        peaks[td.tenant] = std::max(peaks[td.tenant], td.demand);
      }
    }
    int64_t sum = 0;
    for (const auto& [tenant, peak] : peaks) sum += peak;
    return static_cast<int64_t>(
        std::ceil(options_.tenant_headroom * static_cast<double>(sum)));
  }

  DynamicStrategyOptions options_;
  std::vector<std::unique_ptr<ProvisioningStrategy>> experts_;
  std::vector<AllocationModel> models_;
  std::vector<double> interval_cost_;
  MultiplicativeWeights mw_;
  Rng rng_;
  size_t chosen_ = 0;
  int64_t seconds_ = 0;
  int64_t switches_ = 0;
  int64_t last_target_ = 0;
  std::vector<std::vector<TenantDemand>> mixes_;
};

struct DifferentialRun {
  DynamicStrategyOptions options;
  /// Second at which the VM price rises and the startup time shortens
  /// (-1: never).
  int64_t environment_change_s = -1;
  /// Feed a three-tenant split of each second's demand.
  bool feed_tenants = false;
};

/// Steps the flat table and the reference side by side over a noisy
/// sinusoid with bursts, longer than the longest lookback, and requires
/// every observable to be bit-identical every second.
void ExpectMatchesReference(const DifferentialRun& run) {
  CostModel cost;
  DynamicStrategy dynamic(&cost, run.options);
  CostModel ref_cost;
  ReferenceDynamic ref(&ref_cost, run.options);
  WorkloadHistory history;
  Rng rng(99);
  const auto base = SinusoidDemand(4200, 1500, 120);
  for (size_t s = 0; s < base.size(); ++s) {
    if (static_cast<int64_t>(s) == run.environment_change_s) {
      for (CostModel* c : {&cost, &ref_cost}) {
        c->vm_cost_per_hour *= 3.0;
        c->vm_startup_ms = 45'000;
      }
    }
    int64_t demand = std::max<int64_t>(0, base[s] + rng.NextInt(-15, 15));
    if (rng.NextBounded(200) == 0) demand += 400;  // burst
    history.Append(demand);
    if (run.feed_tenants) {
      std::vector<TenantDemand> mix;
      const int64_t a = demand / 2;
      const int64_t b = (demand - a) * static_cast<int64_t>(s % 3) / 3;
      for (const TenantDemand& td : {TenantDemand{1, a}, TenantDemand{2, b},
                                     TenantDemand{5, demand - a - b}}) {
        if (td.demand > 0) mix.push_back(td);
      }
      dynamic.ObserveTenantDemand(mix);
      ref.ObserveTenantDemand(mix);
    }
    ASSERT_EQ(dynamic.Target(history), ref.Target(history)) << "second " << s;
    ASSERT_EQ(dynamic.chosen_expert_name(), ref.chosen_expert_name())
        << "second " << s;
    ASSERT_EQ(dynamic.expert_switches(), ref.expert_switches())
        << "second " << s;
    ASSERT_EQ(dynamic.weights().weights(), ref.weights().weights())
        << "second " << s;
    for (size_t i = 0; i < dynamic.num_experts(); ++i) {
      ASSERT_EQ(dynamic.ExpertCost(i), ref.ExpertCost(i))
          << "second " << s << " expert " << i;
    }
  }
  EXPECT_GT(dynamic.expert_switches(), 0);
}

TEST(DynamicStrategyDifferentialTest, DefaultFamily) {
  ExpectMatchesReference({});
}

TEST(DynamicStrategyDifferentialTest, PercentileStepFiveBoostsOffGrid) {
  // Percentiles 1, 6, ..., 96: the boosted p80 is not an expert of its own.
  DifferentialRun run;
  run.options.family.percentile_step = 5;
  ExpectMatchesReference(run);
}

TEST(DynamicStrategyDifferentialTest, NoBoostMultipliers) {
  DifferentialRun run;
  run.options.family.boost_multipliers.clear();
  ExpectMatchesReference(run);
}

TEST(DynamicStrategyDifferentialTest, SingleLookback) {
  DifferentialRun run;
  run.options.family.lookbacks_s = {300};
  ExpectMatchesReference(run);
}

TEST(DynamicStrategyDifferentialTest, MidRunPriceAndStartupChange) {
  DifferentialRun run;
  run.environment_change_s = 2000;
  ExpectMatchesReference(run);
}

TEST(DynamicStrategyDifferentialTest, TenantDemandFed) {
  DifferentialRun run;
  run.feed_tenants = true;
  ExpectMatchesReference(run);
}

// ---------------------------------------------------------------------------
// ShuffleProvisioner
// ---------------------------------------------------------------------------

TEST(ShuffleProvisionerTest, FloorAlwaysProvisioned) {
  CostModel cost;  // 8 GB nodes, 16 GB floor -> at least 2 nodes
  ShuffleProvisioner prov(&cost);
  EXPECT_EQ(prov.Step(0), 2);
  EXPECT_EQ(prov.Step(100), 2);
}

TEST(ShuffleProvisionerTest, TracksWindowMax) {
  CostModel cost;
  ShuffleProvisioner prov(&cost, /*lookback_s=*/5, /*floor_bytes=*/0);
  const int64_t gb = 1LL << 30;
  EXPECT_EQ(prov.Step(40 * gb), 5);  // ceil(40/8)
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(prov.Step(1 * gb), 5);  // 40 GB still inside the window
  }
  // The 40 GB sample has now fallen out of the 5 s window.
  EXPECT_EQ(prov.Step(1 * gb), 1);
}

}  // namespace
}  // namespace cackle
