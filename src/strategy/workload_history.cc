#include "strategy/workload_history.h"

#include <algorithm>

#include "common/logging.h"

namespace cackle {

namespace {

/// Index of the first of the `n` ascending values at `v` that is not
/// below `x` (kUpper false: std::lower_bound) or is above `x` (kUpper true:
/// std::upper_bound). Branch-free halving: appends probe unrelated values,
/// so a branchy search would mispredict about every other step.
template <bool kUpper>
size_t Bound(const int64_t* v, size_t n, int64_t x) {
  if (n == 0) return 0;
  const int64_t* base = v;
  while (n > 1) {
    const size_t half = n / 2;
    base = (kUpper ? base[half] <= x : base[half] < x) ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - v) + (kUpper ? *base <= x : *base < x);
}

/// Replaces one occurrence of `out` in the ascending vector `v` with `in`,
/// keeping it sorted: only the entries between the two positions move.
void ReplaceSorted(std::vector<int64_t>* v, int64_t out, int64_t in) {
  int64_t* data = v->data();
  const size_t pos = Bound<false>(data, v->size(), out);
  CACKLE_CHECK(pos < v->size() && data[pos] == out);
  if (in > out) {
    const size_t end =
        pos + 1 + Bound<true>(data + pos + 1, v->size() - pos - 1, in);
    std::move(data + pos + 1, data + end, data + pos);
    data[end - 1] = in;
  } else if (in < out) {
    const size_t begin = Bound<false>(data, pos, in);
    std::move_backward(data + begin, data + pos, data + pos + 1);
    data[begin] = in;
  }
}

}  // namespace

const std::vector<int64_t>& WorkloadHistory::DefaultLookbacks() {
  static const std::vector<int64_t>* lookbacks =
      new std::vector<int64_t>{10, 60, 300, 900, 1800, 3600};
  return *lookbacks;
}

int64_t WorkloadHistory::NearestRank(double p, int64_t n) {
  CACKLE_CHECK_GT(n, 0);
  CACKLE_CHECK_GT(p, 0.0);
  CACKLE_CHECK_LE(p, 100.0);
  const int64_t k = static_cast<int64_t>(
      (p / 100.0) * static_cast<double>(n) + 0.9999999);
  return std::clamp<int64_t>(k, 1, n);
}

WorkloadHistory::WorkloadHistory(std::vector<int64_t> lookbacks,
                                 int64_t demand_domain)
    : lookbacks_(std::move(lookbacks)), domain_(demand_domain) {
  CACKLE_CHECK(!lookbacks_.empty());
  CACKLE_CHECK_GT(domain_, 0);
  std::sort(lookbacks_.begin(), lookbacks_.end());
  for (int64_t lb : lookbacks_) {
    CACKLE_CHECK_GT(lb, 0);
    Window w;
    w.lookback_s = lb;
    windows_.push_back(std::move(w));
  }
}

void WorkloadHistory::Append(int64_t demand) {
  CACKLE_CHECK_GE(demand, 0);
  if (demand >= domain_) {
    demand = domain_ - 1;
    ++clamped_;
  }
  history_.push_back(demand);
  const int64_t now = size();  // number of samples after append
  for (Window& w : windows_) {
    w.sum += demand;
    if (now > w.lookback_s) {
      const int64_t evicted =
          history_[static_cast<size_t>(now - w.lookback_s - 1)];
      ReplaceSorted(&w.sorted, evicted, demand);
      w.sum -= evicted;
    } else {
      w.sorted.insert(
          w.sorted.begin() + static_cast<std::ptrdiff_t>(Bound<true>(
                                 w.sorted.data(), w.sorted.size(), demand)),
          demand);
    }
  }
}

const WorkloadHistory::Window& WorkloadHistory::FindWindow(
    int64_t lookback_s) const {
  for (const Window& w : windows_) {
    if (w.lookback_s == lookback_s) return w;
  }
  CACKLE_CHECK(false) << "lookback " << lookback_s << " not registered";
  __builtin_unreachable();
}

int64_t WorkloadHistory::Percentile(int64_t lookback_s, double p) const {
  const std::vector<int64_t>& sorted = FindWindow(lookback_s).sorted;
  if (sorted.empty()) return 0;
  const int64_t n = static_cast<int64_t>(sorted.size());
  return sorted[static_cast<size_t>(NearestRank(p, n) - 1)];
}

const std::vector<int64_t>& WorkloadHistory::Sorted(int64_t lookback_s) const {
  return FindWindow(lookback_s).sorted;
}

double WorkloadHistory::Mean(int64_t lookback_s) const {
  CACKLE_CHECK_GT(lookback_s, 0);
  for (const Window& w : windows_) {
    if (w.lookback_s == lookback_s) {
      const int64_t n = std::min<int64_t>(size(), lookback_s);
      return n == 0 ? 0.0
                    : static_cast<double>(w.sum) / static_cast<double>(n);
    }
  }
  // Unregistered lookback: compute from the raw history.
  const int64_t n = std::min<int64_t>(size(), lookback_s);
  if (n == 0) return 0.0;
  int64_t sum = 0;
  for (int64_t i = size() - n; i < size(); ++i) {
    sum += history_[static_cast<size_t>(i)];
  }
  return static_cast<double>(sum) / static_cast<double>(n);
}

int64_t WorkloadHistory::Max(int64_t lookback_s) const {
  const std::vector<int64_t>& sorted = FindWindow(lookback_s).sorted;
  return sorted.empty() ? 0 : sorted.back();
}

}  // namespace cackle
