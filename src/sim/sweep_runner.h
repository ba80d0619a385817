#ifndef CACKLE_SIM_SWEEP_RUNNER_H_
#define CACKLE_SIM_SWEEP_RUNNER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace cackle {

/// \brief Deterministic parallel fan-out for independent sweep cells.
///
/// A parameter sweep (chaos matrix, arrival-period scan, stability grid) is
/// embarrassingly parallel: every cell builds its own engine on its own
/// Simulation and never touches another cell's state. SweepRunner fans the
/// cells out on a ThreadPool and returns results **in cell
/// index order**, so the merged output is byte-identical no matter how many
/// threads ran it or in what order cells finished.
///
/// Determinism contract (enforced by sweep_runner_test):
///  - the cell function must derive all randomness from its cell index
///    (e.g. seed engines with CellSeed(base, cell)), never from shared
///    mutable state;
///  - results are written into a pre-sized vector slot per cell — no
///    ordering dependence, no locks, no re-numbering.
///
/// The thread count is an execution detail, not a workload parameter: it is
/// passed in explicitly by the caller (benches read it from the
/// CACKLE_SWEEP_THREADS environment variable; library code must not probe
/// hardware concurrency — that would be ambient nondeterminism).
class SweepRunner {
 public:
  explicit SweepRunner(int num_threads)
      : pool_(num_threads > 0 ? num_threads : 1) {}

  int num_threads() const { return pool_.num_threads(); }
  ThreadPool* pool() { return &pool_; }

  /// Runs `fn(cell)` for every cell in [0, num_cells) on the pool and
  /// returns the results in cell order. `fn` must be safe to invoke
  /// concurrently from different threads for different cells. R must be
  /// default-constructible and must not be `bool` (std::vector<bool> slots
  /// are not independently writable from different threads).
  template <typename R, typename Fn>
  std::vector<R> Map(int num_cells, Fn fn) {
    static_assert(!std::is_same_v<R, bool>,
                  "vector<bool> slots are not thread-safe; wrap the bool");
    CACKLE_CHECK_GE(num_cells, 0);
    std::vector<R> results(static_cast<size_t>(num_cells));
    TaskGroup group(&pool_, "sweep");
    for (int cell = 0; cell < num_cells; ++cell) {
      group.Submit([&results, &fn, cell] { results[cell] = fn(cell); });
    }
    // Wait() helps execute queued cells, so Map() on a 1-thread pool (or
    // from inside a pool task) still completes.
    group.Wait();
    return results;
  }

  /// Derives the RNG seed for one sweep cell from the sweep's base seed.
  /// Cell streams are mutually independent and depend only on (base, cell)
  /// — never on the thread count or execution order — so perturbing cell i
  /// cannot change cell j's results.
  static uint64_t CellSeed(uint64_t base_seed, int cell);

 private:
  ThreadPool pool_;
};

}  // namespace cackle

#endif  // CACKLE_SIM_SWEEP_RUNNER_H_
