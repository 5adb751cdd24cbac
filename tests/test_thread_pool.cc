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

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

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

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::int64_t lo, std::int64_t) {
                          if (lo == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
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

// parallel_for waits on its own call's completion group, not wait_idle():
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
TEST(ThreadPool, ParallelForDoesNotWaitForUnrelatedTasks) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  // Occupy one worker with a long task the parallel_for does not depend on.
  // Wait until a worker holds it: the helping caller must not pick it up.
  pool.submit([&release, &started] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::atomic<std::int64_t> covered{0};
  pool.parallel_for(100, [&covered](std::int64_t lo, std::int64_t hi) {
    covered.fetch_add(hi - lo);
  });
  // parallel_for returned while the blocker still runs.
  EXPECT_EQ(covered.load(), 100);
  EXPECT_FALSE(release.load());
  release.store(true);
  pool.wait_idle();
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
  pool.wait_idle();  // pool healthy, no stray stashed error
}

// A throwing submit() task used to std::terminate the worker thread. Now the
// first exception is stashed and rethrown from wait_idle(), wrapped into the
// typed taxonomy when it is not already an HhError.
TEST(ThreadPool, ThrowingSubmitTaskSurfacesFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle() should rethrow the stashed task exception";
  } catch (const HhError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("task boom"), std::string::npos);
  }
  // The stash is consumed: the pool stays usable and idle-waits cleanly.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ThrowingSubmitTaskKeepsHhErrorType) {
  ThreadPool pool(2);
  pool.submit([] { throw ParseError("bad header at line 7"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle() should rethrow the stashed ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), StatusCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("bad header at line 7"),
              std::string::npos);
  }
}

TEST(ThreadPool, FirstStashedErrorWins) {
  ThreadPool pool(1);
  pool.submit([] { throw InvalidArgumentError("first"); });
  pool.submit([] { throw ParseError("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle() should rethrow";
  } catch (const HhError& e) {
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos);
  }
}

// Destroying a pool with an unreported stashed exception must not throw from
// the destructor (it logs instead).
TEST(ThreadPool, DestructionWithStashedErrorIsSafe) {
  {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never observed"); });
    // Give the worker a chance to run the task; destruction joins anyway.
  }
  SUCCEED();
}

}  // namespace
}  // namespace hh
