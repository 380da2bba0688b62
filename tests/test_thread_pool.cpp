// The fork-join pool's contract: every task runs exactly once, the caller
// runs its share as worker 0 (all of it in a one-thread pool), batches can be
// reused back-to-back, and exceptions surface to the caller.
#include "src/runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qplec {
namespace {

std::atomic<std::int64_t> benchmark_sink{0};  // defeats dead-code elimination

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const int n = 177;
    std::vector<std::atomic<int>> hits(n);
    pool.run_indexed(n, [&](int, int task) { ++hits[static_cast<std::size_t>(task)]; });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
    }
  }
}

TEST(ThreadPool, WorkerIdsAreInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.run_indexed(64, [&](int worker, int) {
    if (worker < 0 || worker >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, OneThreadRunsEveryTaskOnTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  const int n = 50;
  std::vector<std::thread::id> ran_on(n);
  std::vector<int> workers(n, -1);
  pool.run_indexed(n, [&](int worker, int task) {
    ran_on[static_cast<std::size_t>(task)] = std::this_thread::get_id();
    workers[static_cast<std::size_t>(task)] = worker;
  });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(ran_on[static_cast<std::size_t>(i)], caller) << "task " << i;
    EXPECT_EQ(workers[static_cast<std::size_t>(i)], 0) << "task " << i;
  }
}

TEST(ThreadPool, WorkerZeroIsTheCallerAndHelpersAreOtherThreads) {
  const int threads = 4;
  ThreadPool pool(threads);
  const std::thread::id caller = std::this_thread::get_id();
  const int n = 64;
  std::vector<std::thread::id> ran_on(n);
  std::vector<int> workers(n, -1);
  pool.run_indexed(n, [&](int worker, int task) {
    ran_on[static_cast<std::size_t>(task)] = std::this_thread::get_id();
    workers[static_cast<std::size_t>(task)] = worker;
    // Long enough that the caller claims a task before the helpers drain
    // the batch.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  std::vector<std::thread::id> thread_of(threads);
  int caller_tasks = 0;
  for (int i = 0; i < n; ++i) {
    const int w = workers[static_cast<std::size_t>(i)];
    ASSERT_GE(w, 0) << "task " << i;
    ASSERT_LT(w, threads) << "task " << i;
    const std::thread::id id = ran_on[static_cast<std::size_t>(i)];
    EXPECT_EQ(w == 0, id == caller) << "task " << i << " ran as worker " << w;
    caller_tasks += w == 0 ? 1 : 0;
    // One worker id, one thread.
    auto& slot = thread_of[static_cast<std::size_t>(w)];
    if (slot == std::thread::id{}) slot = id;
    EXPECT_EQ(slot, id) << "worker " << w << " ran on two threads";
  }
  EXPECT_GT(caller_tasks, 0);
}

TEST(ThreadPool, BatchesAreReusable) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.run_indexed(50, [&](int, int task) { sum += task; });
  }
  EXPECT_EQ(sum.load(), 20 * (49 * 50 / 2));
}

TEST(ThreadPool, SkewedTasksAllComplete) {
  // One task is vastly more expensive than the rest; claiming tasks from one
  // counter keeps the cheap tail from waiting behind it on the same worker.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.run_indexed(40, [&](int, int task) {
    std::int64_t acc = 0;
    const int spins = task == 0 ? 2'000'000 : 1'000;
    for (int i = 0; i < spins; ++i) acc += i;
    benchmark_sink.fetch_add(acc, std::memory_order_relaxed);
    ++done;
  });
  EXPECT_EQ(done.load(), 40);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_indexed(10,
                                [&](int, int task) {
                                  if (task == 7) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool stays usable after a throwing batch.
  std::atomic<int> done{0};
  pool.run_indexed(5, [&](int, int) { ++done; });
  EXPECT_EQ(done.load(), 5);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  pool.run_indexed(0, [&](int, int) { FAIL() << "no task should run"; });
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

}  // namespace
}  // namespace qplec
