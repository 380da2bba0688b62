// Fork-join pool for the sharded backend's lanes.
//
// The solver's rounds are synchronous: every lane of a pass steps, then all
// lanes meet at the round barrier.  ThreadPool(n) is that fork-join and
// nothing more: n - 1 helper threads plus the calling thread, which runs its
// own share of every batch as worker 0.  Tasks are claimed from one atomic
// counter, so a skewed batch balances itself without per-worker queues, and
// a one-thread pool starts no thread at all (every task runs inline on the
// caller).
//
// Determinism: the pool decides *which thread* runs a task, never *what*
// the task computes — lanes, not threads, split the work — so results are
// bit-identical for any thread count.
//
// Lease safety: run_indexed may be called concurrently from different
// threads (several solves can lease one pool through
// ExecConfig::shared_pool).  Concurrent batches serialize — the pool runs one
// at a time, in lease-lock order — so round fan-outs of concurrent solves
// interleave instead of oversubscribing the machine.  A task must never call
// run_indexed on its own pool (it would self-deadlock behind the lease).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qplec {

namespace obs {
class Counter;
}  // namespace obs

class ThreadPool {
 public:
  /// num_threads <= 0 picks the hardware concurrency (at least 1).  Starts
  /// num_threads - 1 helper threads; the caller of run_indexed is the last.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Opt-in lane-time telemetry: registers the process-wide series
  /// `qplec_pool_<name>_{workers,tasks_total,busy_us_total}` and starts
  /// timing every task this pool executes (two clock reads per task; the
  /// busy counter folds per-worker padded cells).  Idle time is derived:
  /// wall_time * workers - busy.  Call before the pool sees work; the name
  /// distinguishes the shard-worker lease from other pools.
  void enable_metrics(const std::string& name);

  /// Runs fn(worker_id, task_index) for every task_index in [0, num_tasks),
  /// each exactly once, and blocks until all have finished.  The caller runs
  /// tasks as worker 0, the helpers as workers 1..num_threads()-1.
  /// Exceptions thrown by fn are captured and the first one is rethrown
  /// here.  Safe to call from multiple external threads at once: concurrent
  /// calls run their batches back to back (see the lease-safety note above).
  void run_indexed(int num_tasks, const std::function<void(int, int)>& fn);

 private:
  void helper_loop(int worker_id);
  /// Claims and runs tasks of the open batch until none is left.
  void drain(int worker_id, const std::function<void(int, int)>& fn);

  std::vector<std::thread> helpers_;

  // Lane-time telemetry (null until enable_metrics; registry-owned).
  obs::Counter* tasks_total_ = nullptr;
  obs::Counter* busy_us_total_ = nullptr;

  std::mutex lease_mu_;  // serializes whole run_indexed calls (lease safety)
  std::mutex mu_;
  std::condition_variable start_cv_;  // wakes helpers when a batch opens
  std::condition_variable done_cv_;   // wakes the caller when helpers leave
  const std::function<void(int, int)>* fn_ = nullptr;  // null: no batch open
  std::uint64_t epoch_ = 0;  // batches opened so far
  int active_ = 0;           // helpers inside the open batch
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  int num_tasks_ = 0;
  std::atomic<int> next_task_{0};
};

}  // namespace qplec
