#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dps {

/// CPUs actually available to this process: the scheduler affinity mask
/// size where the platform exposes one (containers and cgroup-pinned CI
/// runners often report the host's core count via hardware_concurrency
/// while only granting a subset), falling back to hardware concurrency,
/// never less than 1.
unsigned available_threads();

/// Fixed-size worker pool used by the experiment sweep layer
/// (experiments/sweep.hpp), the tree's leaf tier and the engine's physics
/// blocks (run_blocks below). Deliberately minimal — no work stealing, no
/// priorities, no resizing: tasks are executed in FIFO submission order by
/// whichever worker frees up first, and each task's result (or exception)
/// travels through the std::future returned by submit(). Determinism of a
/// sweep therefore never depends on the pool: tasks must be independent,
/// and callers that need ordered output collect the futures in submission
/// order (sweep_ordered does exactly that).
class ThreadPool {
 public:
  /// Spawns `threads` workers. Throws std::invalid_argument on threads < 1.
  explicit ThreadPool(int threads);

  /// Drains the queue: every task submitted before destruction runs to
  /// completion (so no future is ever abandoned), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns the future of its result. The task body may
  /// throw; the exception is captured and rethrown by future::get().
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>&>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>&>;
    // packaged_task is move-only; std::function requires copyable targets,
    // so the task rides behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        throw std::logic_error("ThreadPool::submit: pool is shutting down");
      }
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Whether the thread calling run_blocks claims blocks too, or only waits
/// for the pool's workers.
enum class Caller { kClaims, kWaits };

/// Calls `body(i)` once for every i in [0, count): every worker of `pool`
/// and, with Caller::kClaims, the calling thread claim `claim` indices at a
/// time from one shared counter until none are left. A throwing body does
/// not stop its thread, and run_blocks returns only after every task has
/// finished, because the tasks reference the caller's frame; it then
/// rethrows the exception of the lowest index that threw. Without a pool
/// the calling thread runs the indices in order, and the first throw, the
/// lowest, ends the call. Bodies must touch disjoint state for the result
/// not to depend on who ran what.
template <typename Body>
void run_blocks(ThreadPool* pool, Caller caller, std::size_t count,
                std::size_t claim, Body&& body) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  struct Failure {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  std::atomic<std::size_t> next{0};
  auto claim_blocks = [&]() {
    Failure failure;
    for (;;) {
      const std::size_t first =
          next.fetch_add(claim, std::memory_order_relaxed);
      if (first >= count) return failure;
      const std::size_t last = std::min(first + claim, count);
      for (std::size_t i = first; i < last; ++i) {
        try {
          body(i);
        } catch (...) {
          if (i < failure.index) failure = {i, std::current_exception()};
        }
      }
    }
  };
  // A task beyond the number of claims would only find the counter spent.
  const std::size_t claims = (count + claim - 1) / claim;
  const bool caller_claims = caller == Caller::kClaims;
  const std::size_t helpers =
      std::min(static_cast<std::size_t>(pool->size()),
               caller_claims && claims > 0 ? claims - 1 : claims);
  std::vector<std::future<Failure>> tasks;
  tasks.reserve(helpers);
  std::exception_ptr submit_error;
  try {
    for (std::size_t w = 0; w < helpers; ++w) {
      tasks.push_back(pool->submit(claim_blocks));
    }
  } catch (...) {
    submit_error = std::current_exception();
  }
  // The calling thread claims when it is meant to, and when no task could
  // be submitted.
  Failure lowest = caller_claims || tasks.empty() ? claim_blocks() : Failure{};
  for (auto& task : tasks) {
    Failure failure = task.get();
    if (failure.index < lowest.index) lowest = std::move(failure);
  }
  if (lowest.error) std::rethrow_exception(lowest.error);
  if (submit_error) std::rethrow_exception(submit_error);
}

}  // namespace dps
