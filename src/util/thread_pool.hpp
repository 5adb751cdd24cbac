// Fixed-size thread pool with a blocked-range parallel_for, and on_workers,
// which runs one body per worker that draws blocks from a shared counter.
//
// Host kernels (the "real" numeric computation) run through this pool; the
// simulated devices charge time from their own cost models independently of
// how many host threads actually execute.
//
// Concurrency contract:
//  - parallel_for() waits on its own per-call completion group, never on the
//    whole pool, so concurrent callers (e.g. the service worker and a bench
//    harness sharing one pool) do not block on each other's blocks.
//    While waiting, the calling thread helps drain the shared queue, which
//    also makes nested parallel_for calls (a block that itself calls
//    parallel_for) deadlock-free even on a single-worker pool.
//  - Every queued task is a parallel_for block, which catches what its body
//    throws; the call rethrows the first such exception, original type
//    preserved, once all of its blocks are done.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hh {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(begin, end) over [0, n) split into roughly size()*4 blocks and
  /// block until this call's blocks are done (not the whole pool).
  /// Exceptions from fn are rethrown (first one wins). Safe to call from
  /// multiple threads concurrently and from inside pool tasks (nested).
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

 private:
  /// Queue a task that does not throw.
  void enqueue(std::function<void()> task);
  void worker_loop();
  /// Pop and run one queued task on the calling thread; false if none.
  bool try_help_one();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

/// Hands blocks 0, 1, ..., blocks - 1 out to the pool's workers as they free
/// up, so a stretch of heavy blocks does not leave one worker with most of
/// the work. body(take) runs once on each of up to pool.size() + 1 workers
/// (parallel_for's caller works too), sets up the worker's scratch, and
/// calls take() for each next block until it returns `blocks`.
template <class Body>
void on_workers(ThreadPool& pool, std::size_t blocks, Body&& body) {
  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::min(blocks, pool.size() + 1);
  pool.parallel_for(static_cast<std::int64_t>(workers),
                    [&](std::int64_t, std::int64_t) {
                      body([&next] { return next++; });
                    });
}

}  // namespace hh
