// Fixed-size thread pool with a blocked-range parallel_for.
//
// Host kernels (the "real" numeric computation) run through this pool; the
// simulated devices charge time from their own cost models independently of
// how many host threads actually execute.
//
// Concurrency contract:
//  - parallel_for() waits on its own per-call completion group, never on the
//    whole pool, so concurrent callers (e.g. the service worker and a bench
//    harness sharing one pool) do not block on each other's tasks.
//    While waiting, the calling thread helps drain the shared queue, which
//    also makes nested parallel_for calls (a task that itself calls
//    parallel_for) deadlock-free even on a single-worker pool.
//  - A task submitted via submit() that throws never escapes the worker
//    thread (which would std::terminate the process): the first exception is
//    stashed and rethrown from the next wait_idle() — as-is when it is part
//    of the HhError taxonomy (util/status.hpp), wrapped into an HhError with
//    StatusCode::kInternal otherwise. If the pool is destroyed with an
//    unreported stashed exception, it is logged, not thrown.
//  - parallel_for() reports its body's exceptions itself (first one wins,
//    original type preserved); they do not go through the wait_idle() stash.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
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

  /// Enqueue a task; wait_idle() blocks until all enqueued tasks finish.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and no task is running, then rethrow
  /// the first exception any submit()-ed task threw since the last call
  /// (HhError subclasses as-is, anything else wrapped as kInternal).
  void wait_idle();

  /// Run fn(begin, end) over [0, n) split into roughly size()*4 blocks and
  /// block until this call's blocks are done (not the whole pool).
  /// Exceptions from fn are rethrown (first one wins). Safe to call from
  /// multiple threads concurrently and from inside pool tasks (nested).
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

 private:
  void worker_loop();
  /// Run a task, stashing (not propagating) anything it throws.
  void run_task(std::function<void()> task);
  /// Pop and run one queued task on the calling thread; false if none.
  bool try_help_one();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr stashed_error_;  // first submit()-task failure, guarded
                                      // by mutex_
};

}  // namespace hh
