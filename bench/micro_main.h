// main() of the google-benchmark binaries (micro_strategy, micro_exec).

#ifndef CACKLE_BENCH_MICRO_MAIN_H_
#define CACKLE_BENCH_MICRO_MAIN_H_

#include <benchmark/benchmark.h>

#include <string>
#include <thread>

#ifndef CACKLE_BENCH_CXX_FLAGS
#define CACKLE_BENCH_CXX_FLAGS "(unknown)"
#endif

namespace cackle {

/// Runs the registered benchmarks with the execution environment in the
/// JSON context: a committed artifact must say on its face how many cores
/// its numbers came from (parallel variants on a 1-core CI runner are
/// determinism coverage only) and which optimization flags built them.
inline int MicroBenchMain(int argc, char** argv) {
  benchmark::AddCustomContext(
      "available_cores",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("cxx_flags", CACKLE_BENCH_CXX_FLAGS);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace cackle

#endif  // CACKLE_BENCH_MICRO_MAIN_H_
