#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"

namespace cackle {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(2);
  TaskGroup group(&pool, "unit");
  std::atomic<int64_t> sum{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(group.outstanding(), 0);
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.tasks_submitted, kTasks);
  EXPECT_EQ(stats.tasks_run, kTasks);
}

TEST(ThreadPoolTest, SingleWorkerPoolCompletesWithWaitingCaller) {
  // One worker plus the caller helping from Wait() — the classic executor
  // configuration (num_threads - 1 workers, caller is the Nth executor).
  ThreadPool pool(1);
  TaskGroup group(&pool, "help");
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    group.Submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, TasksSubmittedFromTasksComplete) {
  // TaskGroup::Wait covers tasks submitted from inside running group tasks
  // while the group is being waited on.
  ThreadPool pool(2);
  TaskGroup group(&pool, "chain");
  std::atomic<int> leaves{0};
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (int i = 0; i < 2; ++i) {
      group.Submit([&spawn, depth] { spawn(depth - 1); });
    }
  };
  group.Submit([&spawn] { spawn(6); });
  group.Wait();
  EXPECT_EQ(leaves.load(), 64);  // binary tree of depth 6
  EXPECT_EQ(group.outstanding(), 0);
}

TEST(ThreadPoolTest, SubtasksOfABlockedTaskAllRun) {
  // A pool task queues a burst of subtasks and then blocks; the second
  // worker and the waiting caller must run them all.
  ThreadPool pool(2);
  TaskGroup group(&pool, "burst");
  std::atomic<int> ran{0};
  group.Submit([&] {
    for (int i = 0; i < 32; ++i) {
      group.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Keep the spawning worker occupied while the others drain the queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  group.Wait();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_GE(pool.stats().max_queue_depth, 1);
}

TEST(ThreadPoolTest, FlatWaveRunsOnEveryWorkerPlusTheWaitingCaller) {
  // Three workers plus the caller helping from Wait() are four executors:
  // four tasks that each block until all four have started can only meet
  // if all of them run at once.
  ThreadPool pool(3);
  TaskGroup group(&pool, "wave");
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> met{0};
  for (int i = 0; i < 4; ++i) {
    group.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(10),
                      [&] { return arrived == 4; })) {
        met.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  group.Wait();
  EXPECT_EQ(met.load(), 4);
  EXPECT_EQ(pool.stats().tasks_run, 4);
}

TEST(ThreadPoolTest, NestedWaitFromPoolTasksCompletes) {
  // Every executor (one worker, the caller) can be inside an outer task
  // waiting on its own inner group; the waits must run the inner tasks
  // themselves rather than block on a worker that is never free.
  ThreadPool pool(1);
  TaskGroup outer(&pool, "outer");
  std::atomic<int> inner_ran{0};
  for (int i = 0; i < 4; ++i) {
    outer.Submit([&pool, &inner_ran] {
      TaskGroup inner(&pool, "inner");
      for (int j = 0; j < 8; ++j) {
        inner.Submit(
            [&inner_ran] { inner_ran.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_ran.load(), 32);
}

TEST(ThreadPoolTest, GroupIsReusableAcrossWaves) {
  ThreadPool pool(2);
  TaskGroup group(&pool, "waves");
  std::atomic<int> total{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      group.Submit([&total] { total.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    EXPECT_EQ(total.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, TwoGroupsShareOnePool) {
  ThreadPool pool(2);
  TaskGroup a(&pool, "a");
  TaskGroup b(&pool, "b");
  std::atomic<int> ra{0};
  std::atomic<int> rb{0};
  for (int i = 0; i < 50; ++i) {
    a.Submit([&ra] { ra.fetch_add(1, std::memory_order_relaxed); });
    b.Submit([&rb] { rb.fetch_add(1, std::memory_order_relaxed); });
  }
  a.Wait();
  b.Wait();
  EXPECT_EQ(ra.load(), 50);
  EXPECT_EQ(rb.load(), 50);
}

TEST(ThreadPoolTest, GroupContextInstalledDuringTasks) {
  ThreadPool pool(1);
  TaskGroup group(&pool, "q8/join_ps");
  std::string seen;
  std::mutex mu;
  for (int i = 0; i < 8; ++i) {
    group.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      seen = internal::ThreadLogContext();
    });
  }
  group.Wait();
  EXPECT_EQ(seen, "q8/join_ps");
  // Outside any task the calling thread's context is untouched.
  EXPECT_EQ(internal::ThreadLogContext(), "");
}

TEST(ThreadPoolTest, LogContextTagsMessages) {
  testing::internal::CaptureStderr();
  {
    ScopedLogContext ctx("plan/stage3");
    CACKLE_LOG(Warning) << "something odd";
  }
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("(plan/stage3)"), std::string::npos) << log;
  EXPECT_NE(log.find("something odd"), std::string::npos) << log;
  // Context restored: a message after the scope carries no tag.
  testing::internal::CaptureStderr();
  CACKLE_LOG(Warning) << "untagged";
  const std::string after = testing::internal::GetCapturedStderr();
  EXPECT_EQ(after.find("(plan/stage3)"), std::string::npos) << after;
}

TEST(ThreadPoolTest, ScopedLogContextNests) {
  ScopedLogContext outer("outer");
  EXPECT_EQ(internal::ThreadLogContext(), "outer");
  {
    ScopedLogContext inner("inner");
    EXPECT_EQ(internal::ThreadLogContext(), "inner");
  }
  EXPECT_EQ(internal::ThreadLogContext(), "outer");
}

TEST(ThreadPoolTest, ExportMetricsPublishesLifetimeTotals) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 30; ++i) {
    group.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  MetricsRegistry metrics;
  pool.ExportMetrics(&metrics, "exec.pool");
  EXPECT_EQ(metrics.CounterValue("exec.pool.tasks_submitted"), 30);
  EXPECT_EQ(metrics.CounterValue("exec.pool.tasks_run"), 30);
  EXPECT_GE(metrics.CounterValue("exec.pool.busy_micros"), 0);
  EXPECT_NE(metrics.FindCounter("exec.pool.helper_runs"), nullptr);
  EXPECT_NE(metrics.FindCounter("exec.pool.max_queue_depth"), nullptr);
}

TEST(ThreadPoolTest, DestructionWithIdleWorkersIsClean) {
  for (int n = 1; n <= 4; ++n) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }
}

}  // namespace
}  // namespace cackle
