// Tests for the worker pool and the process-wide executor behind
// parallel_for: result delivery, exception propagation through futures and
// parallel_for, the inline paths, the thread budget, and thread reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/spec_util.h"
#include "common/thread_pool.h"

namespace sq::common {
namespace {

/// OS threads of this process (Linux /proc/self/task); -1 when unknown.
/// Starts and joins one thread first: sanitizer runtimes start a helper
/// thread at the first pthread_create, which must not count as a worker.
long os_threads() {
  std::thread([] {}).join();
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return std::distance(it, std::filesystem::directory_iterator{});
}

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  const int n = resolve_threads(0);
  EXPECT_GE(n, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(n, static_cast<int>(hw));
  }
}

TEST(ResolveThreads, ExplicitCountsPassThrough) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(7), 7);
  EXPECT_EQ(resolve_threads(-3), 1);  // floored
}

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, TasksActuallyRunOnWorkers) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(
      {
        try {
          fut.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins; every submitted task must have run.
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelFor, CoversEveryIndexWithPool) {
  std::vector<int> out(1000, 0);
  parallel_for(4, out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i);
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelFor, BudgetOfOneRunsInlineInOrder) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
}

TEST(ParallelFor, ZeroIterationsIsANoOp) {
  bool called = false;
  parallel_for(2, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, RethrowsLowestIndexedException) {
  // Two failing indices far apart: the chunk containing the lower index
  // must win, regardless of completion order.
  const auto run = [&] {
    parallel_for(4, 100, [](std::size_t i) {
      if (i == 13 || i == 97) {
        throw std::runtime_error("idx " + std::to_string(i));
      }
    });
  };
  try {
    run();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "idx 13");
  }
}

TEST(ParallelFor, ExceptionOnInlinePathPropagates) {
  EXPECT_THROW(parallel_for(1, 5,
                            [](std::size_t i) {
                              if (i == 2) throw std::logic_error("inline");
                            }),
               std::logic_error);
}

TEST(ParallelFor, BudgetBoundsCallsInFlight) {
  parallel_for(4, 4, [](std::size_t) {});  // executor holds >= 4 workers
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  parallel_for(2, 32, [&](std::size_t) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    in_flight.fetch_sub(1);
  });
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 2);
}

TEST(ParallelFor, NestedCallFromWorkerRunsInline) {
  std::vector<std::vector<std::size_t>> inner(4);
  std::atomic<int> off_thread{0};
  parallel_for(4, inner.size(), [&](std::size_t o) {
    EXPECT_TRUE(on_pool_worker());
    const auto outer = std::this_thread::get_id();
    parallel_for(4, 10, [&](std::size_t i) {
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
      inner[o].push_back(i);
    });
  });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0u);
  for (const auto& v : inner) EXPECT_EQ(v, expect);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ParallelFor, ReusesExecutorThreads) {
  if (os_threads() < 0) GTEST_SKIP() << "no /proc/self/task";
  const long start = os_threads();
  std::atomic<int> on_worker{0};
  parallel_for(4, 64, [&](std::size_t) { on_worker += on_pool_worker(); });
  EXPECT_EQ(on_worker.load(), 64);
  const long warm = os_threads();
  EXPECT_LE(warm - start, 4);
  for (int call = 0; call < 50; ++call) {
    parallel_for(2 + call % 3, 64, [](std::size_t) {});
  }
  EXPECT_EQ(os_threads(), warm);
}

TEST(ParallelFor, BudgetAboveTheCapStartsAtMostNWorkers) {
  if (os_threads() < 0) GTEST_SKIP() << "no /proc/self/task";
  const long start = os_threads();
  std::vector<int> out(3, 0);
  parallel_for(kMaxThreads * 4, out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(out, std::vector<int>(3, 1));
  EXPECT_LE(os_threads() - start, 3);
}

}  // namespace
}  // namespace sq::common
