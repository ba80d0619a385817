#ifndef CACKLE_COMMON_THREAD_POOL_H_
#define CACKLE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace cackle {

class MetricsRegistry;
class TaskGroup;

/// \brief A persistent thread pool: one FIFO task queue shared by a fixed
/// set of workers (the execution substrate for the query executor and the
/// sweep runner).
///
/// Submissions append to the back of one `Mutex`-guarded deque; workers
/// and TaskGroup::Wait helpers pop the oldest task from the front. Idle
/// workers sleep on a condition variable that each submission signals.
/// The traffic is flat waves of coarse tasks (a stage phase's slots, a
/// sweep's cells), so one lock per push and pop is all the scheduling it
/// needs.
///
/// Tasks are plain closures grouped into TaskGroups; a group's context
/// string is installed as the thread-local log context while its tasks run,
/// so fatal CACKLE_CHECK messages from pooled work identify their origin.
///
/// The pool never aborts tasks and has no notion of priorities or
/// cancellation — callers sequence work in TaskGroup waves: submit one
/// phase's tasks, Wait(), then submit the next (see PlanExecutor, which runs
/// each stage's task, partition and concat phases this way).
///
/// Thread safety: all public methods are safe to call from any thread.
class ThreadPool {
 public:
  /// Lifetime totals, readable at any time (values are monotone; a
  /// concurrent snapshot can be mid-update but never torn).
  struct Stats {
    int64_t tasks_submitted = 0;
    int64_t tasks_run = 0;
    /// Tasks executed by threads helping from TaskGroup::Wait.
    int64_t helper_runs = 0;
    /// Summed wall-clock microseconds spent inside task bodies.
    int64_t busy_micros = 0;
    /// Deepest the queue has been.
    int64_t max_queue_depth = 0;
  };

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  Stats stats() const;

  /// Exports the lifetime totals as counters under `prefix` (e.g.
  /// "exec.pool" -> exec.pool.tasks_run, exec.pool.helper_runs, ...).
  void ExportMetrics(MetricsRegistry* metrics,
                     const std::string& prefix) const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  /// Enqueues a task (group-owned; called by TaskGroup::Submit).
  void Submit(Task task);
  /// Pops and runs the oldest queued task; false when the queue is empty.
  bool RunOneTask();
  void Execute(Task task, bool helper);
  void WorkerLoop();

  mutable Mutex mu_;
  /// Signalled once per submission and on shutdown.
  CondVar cv_;
  std::deque<Task> queue_ CACKLE_GUARDED_BY(mu_);
  bool stop_ CACKLE_GUARDED_BY(mu_) = false;
  int64_t tasks_submitted_ CACKLE_GUARDED_BY(mu_) = 0;
  int64_t max_queue_depth_ CACKLE_GUARDED_BY(mu_) = 0;

  std::atomic<int64_t> tasks_run_{0};
  std::atomic<int64_t> helper_runs_{0};
  std::atomic<int64_t> busy_micros_{0};
  /// Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

/// \brief A batch of pool tasks that can be awaited together.
///
/// Submit() enqueues a closure; Wait() blocks until every task submitted to
/// the group (including tasks submitted by other group tasks while waiting)
/// has finished. The waiting thread does not idle: it helps execute queued
/// pool work, so a group wait from the only runnable thread still makes
/// progress and a 1-worker pool plus a waiting caller behaves like two
/// executors.
///
/// `context` propagates to fatal-check/log messages of every task in the
/// group via ScopedLogContext.
///
/// A group may be reused for several submit/wait waves. It must outlive its
/// outstanding tasks (destruction checks the count is zero).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool, std::string context = "");
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> fn);
  void Wait();

  const std::string& context() const { return context_; }
  int64_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

 private:
  friend class ThreadPool;

  /// Called by the pool after a task body finishes.
  void TaskDone();

  ThreadPool* pool_;
  std::string context_;
  std::atomic<int64_t> outstanding_{0};
  /// Pure completion handshake: TaskDone() decrements outstanding_ under
  /// this lock so Wait()'s zero observation happens-after the last pool
  /// touch of the group. Guards no plain data by design.
  Mutex mu_;  // NOLINT(cackle-lock-annotation): condvar handshake only; outstanding_ stays atomic so outstanding() and the Wait fast path read it lock-free.
  CondVar cv_;
};

}  // namespace cackle

#endif  // CACKLE_COMMON_THREAD_POOL_H_
