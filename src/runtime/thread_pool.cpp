#include "src/runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/assert.hpp"
#include "src/obs/metrics.hpp"

namespace qplec {

using Clock = std::chrono::steady_clock;

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  helpers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    helpers_.emplace_back([this, i] { helper_loop(i); });
  }
}

void ThreadPool::enable_metrics(const std::string& name) {
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("qplec_pool_" + name + "_workers").set(num_threads());
  tasks_total_ = &reg.counter("qplec_pool_" + name + "_tasks_total");
  busy_us_total_ = &reg.counter("qplec_pool_" + name + "_busy_us_total");
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& h : helpers_) h.join();
}

void ThreadPool::run_indexed(int num_tasks, const std::function<void(int, int)>& fn) {
  QPLEC_REQUIRE(num_tasks >= 0);
  if (num_tasks == 0) return;

  // One batch at a time: a leased pool can be hit by several sharded solves
  // concurrently.  No batch is open here, so no helper reads the state set
  // below until the batch opens under mu_.
  std::lock_guard<std::mutex> lease(lease_mu_);
  num_tasks_ = num_tasks;
  next_task_.store(0, std::memory_order_relaxed);

  const bool fork = !helpers_.empty() && num_tasks > 1;
  if (fork) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      ++epoch_;
    }
    start_cv_.notify_all();
  }
  drain(0, fn);
  if (fork) {
    // Every task is claimed.  Close the batch so a helper that wakes late
    // stays out of it, then wait for the helpers still running a claim.
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = nullptr;
    done_cv_.wait(lock, [this] { return active_ == 0; });
  }
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void ThreadPool::drain(int worker_id, const std::function<void(int, int)>& fn) {
  // Lane-time telemetry rides the task boundary: two clock reads per task,
  // only once enable_metrics armed the counters.
  const bool timed = busy_us_total_ != nullptr;
  for (;;) {
    const int task = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (task >= num_tasks_) return;
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    try {
      fn(worker_id, task);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (timed) {
      const auto us =
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count();
      busy_us_total_->inc(worker_id, static_cast<std::uint64_t>(us));
      tasks_total_->inc(worker_id, 1);
    }
  }
}

void ThreadPool::helper_loop(int worker_id) {
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    start_cv_.wait(lock, [&] { return shutdown_ || (fn_ != nullptr && epoch_ != seen_epoch); });
    if (shutdown_) return;
    seen_epoch = epoch_;
    const std::function<void(int, int)>& fn = *fn_;
    ++active_;
    lock.unlock();
    drain(worker_id, fn);
    lock.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

}  // namespace qplec
