// cackle_perfbench: the repository benchmark binary. perfbench/run.py builds
// and invokes it; see perfbench/README.md for the workloads and metrics.
//
//   cackle_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --fingerprints <file> [--trace-out <file>]
//   cackle_perfbench --selftest
//   cackle_perfbench --write-fingerprints <file>
//
// Prints a human-readable report, then one line
// "PERFBENCH_RESULT {json}" with the outcome, the metrics and the
// environment header. Exits 1 when an output check fails.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

int Usage() {
  std::cerr << "usage: cackle_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --fingerprints <file> "
               "[--trace-out <file>] | --selftest | --write-fingerprints "
               "<file>\n";
  return 2;
}

/// CPUs this process may run on (what nproc reports).
int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool OptimizedBuild() {
#ifdef NDEBUG
  const std::string flags = PERFBENCH_CXX_FLAGS;
  return flags.find("-O2") != std::string::npos ||
         flags.find("-O3") != std::string::npos;
#else
  return false;
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ",";
    out += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

int Run(const RunConfig& config) {
  RunResult result;
  if (config.workload == "model_paper") {
    result = RunModelPaper(config);
  } else if (config.workload == "engine_paper") {
    result = RunEnginePaper(config);
  } else if (config.workload == "engine_chaos") {
    result = RunEngineChaos(config);
  } else if (config.workload == "tpch_sf01") {
    result = RunTpch(config);
  } else {
    std::cerr << "unknown workload '" << config.workload << "'\n";
    return 2;
  }

  std::cout << "== perfbench " << config.workload << " seed " << config.seed
            << " (" << (config.trace ? "traced" : "untraced") << ", "
            << config.seconds << " s of passes)\n";
  std::cout << "env: nproc " << config.threads << ", compiler "
            << PERFBENCH_COMPILER << ", build " << PERFBENCH_BUILD_TYPE
            << ", flags '" << PERFBENCH_CXX_FLAGS << "'\n";
  if (!OptimizedBuild()) {
    std::cout << "WARNING: non-optimised build; timings are not "
                 "comparable\n";
  }
  for (const std::string& note : result.notes) std::cout << note << "\n";
  for (const std::string& err : result.errors) {
    std::cout << "CHECK FAILED: " << err << "\n";
  }
  for (const auto* group : {&result.end_to_end, &result.per_layer}) {
    for (const Metric& m : *group) {
      std::cout << "  " << m.name << " = " << JsonNumber(m.value) << " "
                << m.unit << " (n=" << m.samples << ")\n";
    }
  }

  std::cout << "PERFBENCH_RESULT {\"correct\":"
            << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed
            << ",\"end_to_end\":" << MetricsJson(result.end_to_end)
            << ",\"per_layer\":" << MetricsJson(result.per_layer)
            << ",\"env\":{\"nproc\":" << config.threads
            << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
            << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
            << ",\"cxx_flags\":" << JsonString(PERFBENCH_CXX_FLAGS)
            << ",\"optimized\":" << (OptimizedBuild() ? "true" : "false")
            << "}}" << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.threads = OnlineCpus();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const std::string err = LedgerSelfTest();
      std::cout << (err.empty() ? "ledger self-test: ok\n"
                                : "ledger self-test FAILED: " + err + "\n");
      return err.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--write-fingerprints") return WriteTpchFingerprints(value);
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else if (arg == "--fingerprints") {
      config.fingerprints = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || config.seconds <= 0.0) return Usage();
  return Run(config);
}
