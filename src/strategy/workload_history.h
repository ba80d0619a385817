#ifndef CACKLE_STRATEGY_WORKLOAD_HISTORY_H_
#define CACKLE_STRATEGY_WORKLOAD_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cackle {

/// \brief The per-second demand history the coordinator maintains
/// (Section 4.4.1): the maximum number of concurrently requested tasks in
/// each second since the start of the workload.
///
/// Provisioning strategies ask for aggregates over trailing windows
/// ("lookbacks"). For each registered lookback the history keeps the
/// window's samples as one sorted vector (at most `lookback_s` entries), so
/// a percentile is a single indexed read and the dynamic strategy reads all
/// of a window's cut points from the same array every second. Appending
/// moves only the entries between the evicted and the inserted value.
class WorkloadHistory {
 public:
  /// Default lookbacks (seconds) used by the strategy family: 10 s to 1 h.
  static const std::vector<int64_t>& DefaultLookbacks();

  /// Nearest rank of percentile p in (0, 100] over `n` > 0 samples: the
  /// 1-based k = int64(p/100 * n + 0.9999999), clamped to [1, n]. Every
  /// percentile query of the history (and of the dynamic strategy's expert
  /// table) goes through this one expression.
  static int64_t NearestRank(double p, int64_t n);

  /// `demand_domain` bounds representable demand values; larger samples are
  /// clamped (with the clamp count observable for diagnostics).
  explicit WorkloadHistory(
      std::vector<int64_t> lookbacks = DefaultLookbacks(),
      int64_t demand_domain = 1 << 20);

  /// Appends one second of demand.
  void Append(int64_t demand);

  /// Number of seconds recorded.
  int64_t size() const { return static_cast<int64_t>(history_.size()); }
  /// Most recent sample (0 when empty).
  int64_t Latest() const { return history_.empty() ? 0 : history_.back(); }
  int64_t At(int64_t second) const { return history_[static_cast<size_t>(second)]; }
  const std::vector<int64_t>& values() const { return history_; }

  /// p in (0, 100]. Nearest-rank percentile over the last `lookback_s`
  /// seconds (or the whole history if shorter). `lookback_s` must be one of
  /// the registered lookbacks. Returns 0 on an empty history.
  int64_t Percentile(int64_t lookback_s, double p) const;

  /// The last min(size(), lookback_s) samples in ascending order
  /// (registered lookback only); Percentile(lb, p) is
  /// Sorted(lb)[NearestRank(p, n) - 1].
  const std::vector<int64_t>& Sorted(int64_t lookback_s) const;

  /// Mean over the last `lookback_s` seconds (any lookback; O(1) via the
  /// registered window sums when registered, otherwise computed from the
  /// raw history).
  double Mean(int64_t lookback_s) const;

  /// Maximum over the last `lookback_s` seconds (registered lookback only).
  int64_t Max(int64_t lookback_s) const;

  const std::vector<int64_t>& lookbacks() const { return lookbacks_; }
  int64_t clamped_samples() const { return clamped_; }

 private:
  struct Window {
    int64_t lookback_s;
    std::vector<int64_t> sorted;
    int64_t sum = 0;
  };

  const Window& FindWindow(int64_t lookback_s) const;

  std::vector<int64_t> lookbacks_;
  int64_t domain_;
  std::vector<int64_t> history_;
  std::vector<Window> windows_;
  int64_t clamped_ = 0;
};

}  // namespace cackle

#endif  // CACKLE_STRATEGY_WORKLOAD_HISTORY_H_
