// Microbenchmarks of the strategy stack's hot paths (google-benchmark):
// sorted sliding-window maintenance, the full expert family's per-second
// evaluation, multiplicative-weights updates, allocation-model stepping,
// and oracle computation.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/micro_main.h"
#include "common/rng.h"
#include "strategy/allocation_model.h"
#include "strategy/dynamic_strategy.h"
#include "strategy/multiplicative_weights.h"
#include "strategy/oracle.h"
#include "strategy/workload_history.h"

namespace cackle {
namespace {

void BM_WorkloadHistoryAppend(benchmark::State& state) {
  WorkloadHistory history;
  Rng rng(3);
  int64_t demand = 500;
  for (auto _ : state) {
    demand = std::max<int64_t>(0, demand + rng.NextInt(-20, 20));
    history.Append(demand);
  }
}
BENCHMARK(BM_WorkloadHistoryAppend);

void BM_DynamicStrategySecond(benchmark::State& state) {
  CostModel cost;
  DynamicStrategy dynamic(&cost);
  WorkloadHistory history;
  Rng rng(4);
  int64_t demand = 500;
  // Warm the history so all lookbacks are populated.
  for (int i = 0; i < 4000; ++i) {
    demand = std::max<int64_t>(0, demand + rng.NextInt(-20, 20));
    history.Append(demand);
    dynamic.Target(history);
  }
  for (auto _ : state) {
    demand = std::max<int64_t>(0, demand + rng.NextInt(-20, 20));
    history.Append(demand);
    benchmark::DoNotOptimize(dynamic.Target(history));
  }
}
BENCHMARK(BM_DynamicStrategySecond);

void BM_MultiplicativeWeightsUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MultiplicativeWeights mw(n, 0.25);
  Rng rng(5);
  std::vector<double> penalties(n);
  for (auto _ : state) {
    for (double& p : penalties) p = rng.NextDouble();
    mw.Update(penalties);
  }
}
BENCHMARK(BM_MultiplicativeWeightsUpdate)->Arg(64)->Arg(666);

void BM_AllocationModelStep(benchmark::State& state) {
  CostModel cost;
  AllocationModel model(&cost);
  Rng rng(6);
  int64_t demand = 500;
  int64_t target = 400;
  for (auto _ : state) {
    demand = std::max<int64_t>(0, demand + rng.NextInt(-20, 20));
    if ((model.now_s() & 7) == 0) target = rng.NextInt(0, 1000);
    benchmark::DoNotOptimize(model.Step(target, demand));
  }
}
BENCHMARK(BM_AllocationModelStep);

void BM_OracleOneHour(benchmark::State& state) {
  CostModel cost;
  Rng rng(7);
  std::vector<int64_t> demand(3600);
  int64_t d = 500;
  for (auto& v : demand) {
    d = std::max<int64_t>(0, d + rng.NextInt(-30, 30));
    v = d;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeOracleCost(demand, cost));
  }
}
BENCHMARK(BM_OracleOneHour);

}  // namespace
}  // namespace cackle

int main(int argc, char** argv) { return cackle::MicroBenchMain(argc, argv); }
