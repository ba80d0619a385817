#ifndef CACKLE_PERFBENCH_HARNESS_H_
#define CACKLE_PERFBENCH_HARNESS_H_

// Benchmark-side measurement kit: a host clock, the benchmark's own span
// recorder (spans sit around the benchmark's calls into each layer, never
// inside the program), the layer ledger built from those spans, and the
// result record every workload fills.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds on the monotonic clock.
double NowSeconds();

/// CPU seconds this process has used, all threads.
double CpuSeconds();

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100].
double PercentileOf(std::vector<double> values, double p);

/// One benchmark-side span: a call into one layer. `parent` is -1 for a
/// root. Times are host seconds on NowSeconds()' clock.
struct SpanRecord {
  int id = -1;
  int parent = -1;
  std::string name;
  std::string layer;
  double start_s = 0.0;
  double end_s = 0.0;
  double duration() const { return end_s - start_s; }
};

/// Records spans when enabled; a disabled recorder does nothing, so the
/// untraced passes pay no tracing cost.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  /// Opens a span under the innermost open one.
  int Begin(const std::string& name, const std::string& layer);
  void End(int id);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Chrome trace-event JSON ("X" complete events, microseconds from the
  /// first span), loadable in Perfetto or chrome://tracing as is.
  void WriteChromeTrace(std::ostream& os, const std::string& process) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             const std::string& layer)
      : rec_(rec), id_(rec->Begin(name, layer)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Host time of a timed section split by layer. Built from the self time
/// of every span under one root (a span's duration minus its children's);
/// the root's own self time is the benchmark's glue. Estimates measured
/// outside a span (e.g. the strategy share of an engine run) move seconds
/// from the span's row to a named row, so the row the estimate leaves
/// behind becomes the visible remainder.
class LayerLedger {
 public:
  /// Sums the self time of every descendant of `root` (inclusive) by
  /// layer; divides all rows by `passes` so the ledger describes one pass.
  static LayerLedger FromSpans(const std::vector<SpanRecord>& spans,
                               const std::string& root_name, int passes);
  void Add(const std::string& row, double seconds) { rows_[row] += seconds; }
  void Move(const std::string& from, const std::string& to, double seconds);
  const std::map<std::string, double>& rows() const { return rows_; }
  double wall_s() const { return wall_s_; }
  double Sum() const;
  /// |sum of rows - wall| / wall.
  double ClosureError() const;
  bool Closes(double tolerance = 1e-9) const {
    return ClosureError() <= tolerance;
  }

 private:
  std::map<std::string, double> rows_;
  double wall_s_ = 0.0;
};

/// Checks the ledger arithmetic on a synthetic span tree; returns an empty
/// string on success, otherwise what failed.
std::string LedgerSelfTest();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (1 for counts and deterministic outputs).
  int64_t samples = 1;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (traced runs)
  std::string fingerprints;  // committed TPC-H fingerprint file
  int threads = 1;           // nproc
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable report lines
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    correct = false;
    ++failed;
    errors.push_back(what);
  }
  void E2e(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    end_to_end.push_back({name, value, unit, samples});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             int64_t samples = 1) {
    per_layer.push_back({name, value, unit, samples});
  }
  /// Adds the ledger rows (as `layer.<row>_s`), its wall time and its
  /// closure check; a ledger that does not close fails the run.
  void AddLedger(const LayerLedger& ledger);
};

/// Host seconds of one run of the reference kernel (about 0.4 s): a
/// cache-resident part (sorting 16Ki pseudo-random keys 48 times), a
/// memory-bound part (sorting 2^20 keys, then building and probing a hash
/// map over them) and a core-bound part (a dependent multiply-xorshift
/// chain). The kernel is the benchmark's own fixed code,
/// so its time moves only with the speed the machine gives this thread at
/// that moment.
double ReferenceSeconds();

/// Host times of a run's passes. Untraced runs make only plain passes; a
/// traced run alternates plain passes (even index; the end-to-end figures,
/// the ledger and the per-layer times come from these) with observed ones
/// (odd index) that attach the program's own observability sinks. Every
/// pass is bracketed by reference-kernel runs on the same thread, and
/// `rel` is the pass's wall over the mean of the two brackets.
struct PassTimes {
  std::vector<double> wall;  // plain passes, host seconds
  std::vector<double> cpu;   // plain passes, process CPU seconds
  std::vector<double> rel;   // plain passes, wall / reference
  std::vector<double> ref;   // every reference run, host seconds
  std::vector<double> observed_wall;
  std::vector<double> observed_rel;
  int total() const {
    return static_cast<int>(wall.size() + observed_wall.size());
  }
};

/// Repeats `pass(index, observed)` until `config.seconds` of host time have
/// elapsed and at least `min_plain` plain passes ran (and as many observed
/// ones in a traced run).
template <typename Fn>
PassTimes TimePasses(const RunConfig& config, int min_plain, Fn&& pass) {
  PassTimes times;
  const double begin = NowSeconds();
  times.ref.push_back(ReferenceSeconds());
  for (int i = 0; static_cast<int>(times.wall.size()) < min_plain ||
                  (config.trace &&
                   static_cast<int>(times.observed_wall.size()) < min_plain) ||
                  NowSeconds() - begin < config.seconds;
       ++i) {
    const bool observed = config.trace && i % 2 == 1;
    const double t0 = NowSeconds();
    const double c0 = CpuSeconds();
    pass(i, observed);
    const double wall = NowSeconds() - t0;
    const double cpu = CpuSeconds() - c0;
    times.ref.push_back(ReferenceSeconds());
    const double ref =
        0.5 * (times.ref[times.ref.size() - 2] + times.ref.back());
    if (observed) {
      times.observed_wall.push_back(wall);
      times.observed_rel.push_back(wall / ref);
    } else {
      times.wall.push_back(wall);
      times.cpu.push_back(cpu);
      times.rel.push_back(wall / ref);
    }
  }
  return times;
}

/// Reports pass_rel (median wall / reference over plain passes) as the
/// end-to-end time, host.pass_s and host.ref_s beside it, each plain pass
/// as a note and, in a traced run, obs.traced_run_s and obs.overhead_frac.
void AddPassMetrics(const PassTimes& times, const RunConfig& config,
                    RunResult* out);

/// Writes the traced run's spans to config.trace_out (if set) as Chrome
/// trace-event JSON; a write failure fails the run.
void WriteTraceFile(const RunConfig& config, const SpanRecorder& rec,
                    RunResult* out);

/// Workload entry points (one per workload family).
RunResult RunModelPaper(const RunConfig& config);
RunResult RunEnginePaper(const RunConfig& config);
RunResult RunEngineChaos(const RunConfig& config);
RunResult RunTpch(const RunConfig& config);

/// Writes the committed fingerprint file for the TPC-H suite (1 thread).
int WriteTpchFingerprints(const std::string& path);

}  // namespace perfbench

#endif  // CACKLE_PERFBENCH_HARNESS_H_
