// Worker threads for every parallel fan-out in the library: the planner's
// candidate sweep, the scheduler's per-stage times, the fleet's replica
// groups, and the GEMM / quantization kernels.
//
// Deliberately work-stealing-free: one shared FIFO queue behind a mutex is
// plenty for these coarse tasks, and it keeps the scheduling order easy to
// reason about.  Callers never own threads: parallel_for takes a thread
// budget and runs on one process-wide executor (a ThreadPool grown on
// demand and never destroyed).  Determinism of the *results* never depends
// on scheduling: parallel_for writes each task's output into its own index
// slot and the callers reduce in index order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sq::common {

/// Resolve a user-facing thread-count knob: 0 = hardware concurrency,
/// otherwise the requested value (floored at 1).
int resolve_threads(int requested);

/// True when the calling thread is a ThreadPool worker (any pool).
/// parallel_for uses this to run nested calls inline instead of blocking
/// on workers that may all be waiting on them.
bool on_pool_worker();

/// A plain thread pool.  Tasks run in FIFO submission order; exceptions
/// thrown by a task are captured in its future.
class ThreadPool {
 public:
  explicit ThreadPool(int n_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return static_cast<int>(workers_.size());
  }

  /// Enqueue `fn` and return a future for its result.  The future rethrows
  /// anything `fn` throws.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      const std::lock_guard<std::mutex> lk(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  friend void parallel_for(int threads, std::size_t n,
                           const std::function<void(std::size_t)>& fn);

  /// Start workers until there are at least `n`; never shrinks.
  void grow(int n);
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Run `fn(i)` for every i in [0, n) with at most `threads` calls in
/// flight (0 = hardware concurrency, as resolve_threads).  Runs inline on
/// the caller, in index order, when the budget is <= 1, when n <= 1, or
/// when called from a pool worker (nested fan-outs cannot deadlock).
/// Otherwise min(budget, n) chunk runners share the process-wide executor,
/// which grows to at most min(budget, n, kMaxThreads) workers and keeps
/// them for later calls.  Blocks until every index finished; if any call
/// threw, rethrows the lowest-indexed failure.
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace sq::common
