#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/spec_util.h"

namespace sq::common {

int resolve_threads(int requested) {
  if (requested != 0) return std::max(requested, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {
thread_local bool t_on_pool_worker = false;
}  // namespace

bool on_pool_worker() { return t_on_pool_worker; }

ThreadPool::ThreadPool(int n_threads) { grow(std::max(1, n_threads)); }

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::grow(int n) {
  const std::lock_guard<std::mutex> lk(mu_);
  while (static_cast<int>(workers_.size()) < n) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t runners =
      std::min({static_cast<std::size_t>(resolve_threads(threads)), n,
                static_cast<std::size_t>(kMaxThreads)});
  if (runners <= 1 || on_pool_worker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The process-wide executor.  Never destroyed: joining it from a static
  // destructor would race callers that still fan out during exit.
  static ThreadPool* const executor = new ThreadPool(static_cast<int>(runners));
  executor->grow(static_cast<int>(runners));
  // Static chunks bound per-claim overhead while keeping enough of them
  // that uneven chunk costs still balance across the runners.
  const std::size_t chunk = (n + runners * 8 - 1) / (runners * 8);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(n_chunks);
  std::vector<std::future<void>> futs;
  futs.reserve(runners);
  for (std::size_t r = 0; r < runners; ++r) {
    futs.push_back(executor->submit([&] {
      for (std::size_t c = next++; c < n_chunks; c = next++) {
        const std::size_t end = std::min(n, (c + 1) * chunk);
        try {
          for (std::size_t i = c * chunk; i < end; ++i) fn(i);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : futs) f.get();
  // A chunk stops at its first failure, so the lowest failing chunk holds
  // the lowest-indexed failure.
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace sq::common
