#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ReferenceSeconds() {
  const double t0 = NowSeconds();
  uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t check = 0;
  // Cache-resident: sort 16Ki keys (128 KiB) 48 times.
  std::vector<uint64_t> keys(size_t{1} << 14);
  for (int round = 0; round < 48; ++round) {
    for (uint64_t& k : keys) k = next();
    std::sort(keys.begin(), keys.end());
    check += keys[keys.size() / 2];
  }
  // Memory-bound: sort 2^20 keys (8 MiB), then build a node-based hash map
  // over a quarter of them and probe it with all.
  keys.resize(size_t{1} << 20);
  for (uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint64_t> map;
  for (size_t i = 0; i < keys.size(); i += 4) map[keys[i] >> 3] = i;
  for (const uint64_t k : keys) check += map.count(k >> 3);
  // Core-bound: a dependent multiply-xorshift chain.
  for (int i = 0; i < 20'000'000; ++i) {
    check = (check * 6364136223846793005ULL + 1442695040888963407ULL) ^
            (check >> 13);
  }
  const double seconds = NowSeconds() - t0;
  // Keeps the work from being optimised away.
  if (check == 0) std::fprintf(stderr, "reference kernel checksum is 0\n");
  return seconds;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return PercentileOf(std::move(values), 50.0);
}

int SpanRecorder::Begin(const std::string& name, const std::string& layer) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.layer = layer;
  span.start_s = NowSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = NowSeconds();
  // Spans close innermost-first (ScopedSpan); tolerate out-of-order ends.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void SpanRecorder::WriteChromeTrace(std::ostream& os,
                                    const std::string& process) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\""
     << JsonEscape(process) << "\"}}";
  char buf[64];
  for (const SpanRecord& s : spans_) {
    os << ",\n{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\""
       << JsonEscape(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", (s.start_s - origin) * 1e6);
    os << buf;
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", s.duration() * 1e6);
    os << buf;
    os << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

LayerLedger LayerLedger::FromSpans(const std::vector<SpanRecord>& spans,
                                   const std::string& root_name, int passes) {
  LayerLedger ledger;
  // Mark every span that lives under a root named `root_name`.
  std::vector<char> inside(spans.size(), 0);
  std::vector<double> child_time(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    const size_t i = static_cast<size_t>(s.id);
    if (s.parent < 0) {
      inside[i] = s.name == root_name;
      if (inside[i]) ledger.wall_s_ += s.duration();
    } else {
      inside[i] = inside[static_cast<size_t>(s.parent)];
      child_time[static_cast<size_t>(s.parent)] += s.duration();
    }
  }
  for (const SpanRecord& s : spans) {
    const size_t i = static_cast<size_t>(s.id);
    if (inside[i]) ledger.rows_[s.layer] += s.duration() - child_time[i];
  }
  const double n = passes > 0 ? static_cast<double>(passes) : 1.0;
  ledger.wall_s_ /= n;
  for (auto& [row, seconds] : ledger.rows_) seconds /= n;
  return ledger;
}

void LayerLedger::Move(const std::string& from, const std::string& to,
                       double seconds) {
  rows_[from] -= seconds;
  rows_[to] += seconds;
}

double LayerLedger::Sum() const {
  double sum = 0.0;
  for (const auto& [row, seconds] : rows_) sum += seconds;
  return sum;
}

double LayerLedger::ClosureError() const {
  if (wall_s_ <= 0.0) return 1.0;
  return std::abs(Sum() - wall_s_) / wall_s_;
}

std::string LedgerSelfTest() {
  // root [0,10] { a [1,4] { b [2,3] }, c [5,9] } plus an unrelated root.
  std::vector<SpanRecord> spans = {
      {0, -1, "pass", "bench", 0.0, 10.0},
      {1, 0, "a", "layer_a", 1.0, 4.0},
      {2, 1, "b", "layer_b", 2.0, 3.0},
      {3, 0, "c", "layer_a", 5.0, 9.0},
      {4, -1, "probe", "probe", 10.0, 30.0},
  };
  LayerLedger ledger = LayerLedger::FromSpans(spans, "pass", 2);
  std::ostringstream err;
  auto expect = [&](const std::string& row, double want) {
    auto it = ledger.rows().find(row);
    const double got = it == ledger.rows().end() ? -1.0 : it->second;
    if (std::abs(got - want) > 1e-12) {
      err << "row " << row << " = " << got << ", want " << want << "; ";
    }
  };
  expect("bench", 1.5);    // (10 - 3 - 4) / 2 passes
  expect("layer_a", 3.0);  // ((3 - 1) + 4) / 2
  expect("layer_b", 0.5);
  if (ledger.rows().count("probe") != 0) err << "probe span leaked in; ";
  if (!ledger.Closes()) err << "synthetic ledger does not close; ";
  ledger.Move("layer_a", "estimate", 1.0);
  if (!ledger.Closes()) err << "Move broke closure; ";
  // A row added from outside the span tree must break closure.
  LayerLedger broken = ledger;
  broken.Add("stray", 0.25);
  if (broken.Closes()) err << "stray row not detected; ";
  return err.str();
}

void RunResult::AddLedger(const LayerLedger& ledger) {
  for (const auto& [row, seconds] : ledger.rows()) {
    Layer("layer." + row + "_s", seconds, "s");
  }
  Layer("layer.wall_s", ledger.wall_s(), "s");
  Layer("layer.closure_error", ledger.ClosureError(), "ratio");
  std::ostringstream line;
  line << "layer ledger (host s per plain pass, wall " << ledger.wall_s()
       << "):";
  for (const auto& [row, seconds] : ledger.rows()) {
    line << " " << row << "=" << seconds;
  }
  line << " | closure error " << ledger.ClosureError();
  notes.push_back(line.str());
  if (!ledger.Closes()) Fail("layer ledger does not close: " + line.str());
}

void AddPassMetrics(const PassTimes& times, const RunConfig& config,
                    RunResult* out) {
  const int64_t n = static_cast<int64_t>(times.wall.size());
  out->E2e("pass_rel", Median(times.rel), "ratio", n);
  out->Layer("host.pass_s", Median(times.wall), "s", n);
  out->Layer("host.ref_s", Median(times.ref), "s",
             static_cast<int64_t>(times.ref.size()));
  std::string line = "plain passes, host s wall/cpu (wall/reference):";
  for (size_t i = 0; i < times.wall.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.3f/%.3f (%.2f)", times.wall[i],
                  times.cpu[i], times.rel[i]);
    line += buf;
  }
  out->notes.push_back(line);
  if (config.trace) {
    const int64_t m = static_cast<int64_t>(times.observed_wall.size());
    out->Layer("obs.traced_run_s", Median(times.observed_wall), "s", m);
    out->Layer("obs.overhead_frac",
               Median(times.observed_rel) / Median(times.rel) - 1.0, "ratio",
               m);
  }
}

void WriteTraceFile(const RunConfig& config, const SpanRecorder& rec,
                    RunResult* out) {
  if (config.trace_out.empty()) return;
  std::ofstream os(config.trace_out);
  rec.WriteChromeTrace(os, "perfbench " + config.workload);
  if (!os) {
    out->Fail("cannot write trace file " + config.trace_out);
    return;
  }
  out->notes.push_back("chrome trace: " + config.trace_out);
}

}  // namespace perfbench
