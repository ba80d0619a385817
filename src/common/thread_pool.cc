#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace cackle {

ThreadPool::ThreadPool(int num_threads) {
  CACKLE_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  MutexLock lock(&mu_);
  CACKLE_CHECK(queue_.empty()) << "thread pool destroyed with queued tasks";
}

void ThreadPool::Submit(Task task) {
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
    ++tasks_submitted_;
    max_queue_depth_ =
        std::max(max_queue_depth_, static_cast<int64_t>(queue_.size()));
  }
  cv_.NotifyOne();
}

void ThreadPool::Execute(Task task, bool helper) {
  const ScopedLogContext ctx(task.group != nullptr ? task.group->context()
                                                   : std::string());
  const auto t0 = std::chrono::steady_clock::now();
  task.fn();
  const int64_t micros = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  busy_micros_.fetch_add(micros, std::memory_order_relaxed);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  if (helper) helper_runs_.fetch_add(1, std::memory_order_relaxed);
  // TaskDone last: it may release a waiter that destroys the group.
  if (task.group != nullptr) task.group->TaskDone();
}

bool ThreadPool::RunOneTask() {
  Task task;
  {
    MutexLock lock(&mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  Execute(std::move(task), /*helper=*/true);
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(&mu_);
      cv_.Wait(mu_, [this]() CACKLE_REQUIRES(mu_) {
        return stop_ || !queue_.empty();
      });
      // Shutdown drains the queue first: exit only once nothing is left.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    Execute(std::move(task), /*helper=*/false);
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  {
    MutexLock lock(&mu_);
    s.tasks_submitted = tasks_submitted_;
    s.max_queue_depth = max_queue_depth_;
  }
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.helper_runs = helper_runs_.load(std::memory_order_relaxed);
  s.busy_micros = busy_micros_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ExportMetrics(MetricsRegistry* metrics,
                               const std::string& prefix) const {
  namespace mn = metric_names;
  const Stats s = stats();
  metrics->SetCounter(prefix + mn::kSuffixWorkers, num_threads());
  metrics->SetCounter(prefix + mn::kSuffixTasksSubmitted, s.tasks_submitted);
  metrics->SetCounter(prefix + mn::kSuffixTasksRun, s.tasks_run);
  metrics->SetCounter(prefix + mn::kSuffixHelperRuns, s.helper_runs);
  metrics->SetCounter(prefix + mn::kSuffixBusyMicros, s.busy_micros);
  metrics->SetCounter(prefix + mn::kSuffixMaxQueueDepth, s.max_queue_depth);
}

TaskGroup::TaskGroup(ThreadPool* pool, std::string context)
    : pool_(pool), context_(std::move(context)) {
  CACKLE_CHECK(pool_ != nullptr);
}

TaskGroup::~TaskGroup() {
  CACKLE_CHECK_EQ(outstanding_.load(std::memory_order_acquire), 0)
      << "task group '" << context_ << "' destroyed with outstanding tasks";
}

void TaskGroup::Submit(std::function<void()> fn) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  pool_->Submit(ThreadPool::Task{std::move(fn), this});
}

void TaskGroup::TaskDone() {
  // Decrement under mu_: Wait() only returns after observing zero while
  // holding mu_, which therefore happens-after this critical section — the
  // last touch of the group by any pool thread — so the caller may destroy
  // the group the moment Wait() returns.
  MutexLock lock(&mu_);
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.NotifyAll();
  }
}

void TaskGroup::Wait() {
  for (;;) {
    // Help drain the pool instead of idling: the waiter acts as one more
    // executor, which also makes nested waits from pool threads safe. The
    // timed wait below re-checks the queue for tasks that running group
    // members submit.
    if (outstanding_.load(std::memory_order_acquire) > 0 &&
        pool_->RunOneTask()) {
      continue;
    }
    MutexLock lock(&mu_);
    if (outstanding_.load(std::memory_order_acquire) == 0) return;
    cv_.WaitFor(mu_, std::chrono::milliseconds(1), [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
    if (outstanding_.load(std::memory_order_acquire) == 0) return;
  }
}

}  // namespace cackle
