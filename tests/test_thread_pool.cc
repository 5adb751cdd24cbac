#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/status.hpp"

namespace hh {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int sum = 0;
  pool.parallel_for(1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += 1;
  });
  EXPECT_EQ(sum, 1);
}

// The first exception a block throws comes back with its own type.
TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::int64_t lo, std::int64_t) {
                          if (lo == 0) throw ParseError("boom");
                        }),
      ParseError);
}

TEST(ThreadPool, PoolStillUsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [&](std::int64_t, std::int64_t) {
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::int64_t lo, std::int64_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, LargeRangeSum) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(100000, [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 99999LL * 100000 / 2);
}

// parallel_for waits on its own call's completion group, not on the pool:
// several threads sharing one pool must all complete even when their calls
// interleave arbitrarily.
TEST(ThreadPool, ConcurrentParallelForCallers) {
  ThreadPool pool(2);
  constexpr int kCallers = 4;
  constexpr std::int64_t kN = 2000;
  std::atomic<std::int64_t> sums[kCallers];
  for (auto& s : sums) s.store(0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (int round = 0; round < 5; ++round) {
        pool.parallel_for(kN, [&sums, c](std::int64_t lo, std::int64_t hi) {
          sums[c].fetch_add(hi - lo);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& s : sums) EXPECT_EQ(s.load(), 5 * kN);
}

// A concurrent caller must not wait for *other* callers' unrelated pending
// work — regression test for parallel_for blocking on whole-pool idleness.
// Here another thread's parallel_for stays blocked inside its one block,
// and a second call still completes.
TEST(ThreadPool, ParallelForDoesNotWaitForUnrelatedTasks) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  std::thread blocked([&] {
    pool.parallel_for(1, [&](std::int64_t, std::int64_t) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<std::int64_t> covered{0};
  pool.parallel_for(100, [&covered](std::int64_t lo, std::int64_t hi) {
    covered.fetch_add(hi - lo);
  });
  // parallel_for returned while the other call is still blocked.
  EXPECT_EQ(covered.load(), 100);
  EXPECT_FALSE(release.load());
  release.store(true);
  blocked.join();
}

// The calling thread helps drain the queue, so a task that itself calls
// parallel_for cannot deadlock — even when every worker is occupied by the
// outer call (the classic single-worker nesting deadlock).
TEST(ThreadPool, NestedParallelFor) {
  ThreadPool pool(1);
  std::atomic<std::int64_t> inner_total{0};
  pool.parallel_for(8, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      pool.parallel_for(50, [&inner_total](std::int64_t a, std::int64_t b) {
        inner_total.fetch_add(b - a);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 50);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::int64_t lo, std::int64_t) {
                          pool.parallel_for(4, [&](std::int64_t a,
                                                   std::int64_t) {
                            if (lo == 0 && a == 0) {
                              throw std::runtime_error("inner boom");
                            }
                          });
                        }),
      std::runtime_error);
  // The pool stays usable after the nested throw.
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::int64_t lo, std::int64_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 4);
}

}  // namespace
}  // namespace hh
