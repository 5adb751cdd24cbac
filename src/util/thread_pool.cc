#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "util/check.hpp"

namespace hh {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HH_CHECK_MSG(!stop_, "parallel_for on a stopped pool");
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

bool ThreadPool::try_help_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  task();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
    }
    try_help_one();  // may find the queue emptied by a helper: wait again
  }
}

void ThreadPool::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  const auto blocks =
      std::min<std::int64_t>(n, static_cast<std::int64_t>(size()) * 4);
  const std::int64_t chunk = (n + blocks - 1) / blocks;

  // Per-call completion group: this call waits for exactly its own blocks,
  // not for whole-pool idleness, so concurrent parallel_for callers cannot
  // block on each other's tasks. shared_ptr keeps the group alive for any
  // block that finishes after an exceptional unwind.
  struct CallGroup {
    std::mutex m;
    std::condition_variable cv;
    std::int64_t remaining = 0;
    std::exception_ptr first_error;
  };
  const auto group = std::make_shared<CallGroup>();
  group->remaining = (n + chunk - 1) / chunk;

  for (std::int64_t begin = 0; begin < n; begin += chunk) {
    const std::int64_t end = std::min(n, begin + chunk);
    enqueue([group, &fn, begin, end] {
      try {
        fn(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(group->m);
        if (!group->first_error) group->first_error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(group->m);
      if (--group->remaining == 0) group->cv.notify_all();
    });
  }

  // Help drain the shared queue while this call's blocks are pending. The
  // queue may hand us another caller's task — running it here only speeds
  // that caller up — and helping is what makes nested parallel_for calls
  // progress even when every worker is blocked inside an outer call.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(group->m);
      if (group->remaining == 0) break;
    }
    if (!try_help_one()) {
      // Queue empty: every remaining block is already running on a worker.
      std::unique_lock<std::mutex> lock(group->m);
      group->cv.wait(lock, [&] { return group->remaining == 0; });
      break;
    }
  }
  if (group->first_error) std::rethrow_exception(group->first_error);
}

}  // namespace hh
