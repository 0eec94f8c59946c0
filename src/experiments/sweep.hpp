#pragma once

#include <cstdint>
#include <future>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace dps {

/// Worker count for experiment sweeps: the `DPS_JOBS` environment knob,
/// defaulting to available_threads(). `DPS_JOBS=1` disables the pool
/// entirely — every task runs inline on the calling thread, reproducing
/// the historical serial bench path instruction-for-instruction.
int sweep_jobs();

/// Derives an independent per-task seed from a sweep's base seed and the
/// task index (SplitMix64 mix, like the cluster's (seed, run, socket)
/// realization keys). Tasks seeded this way are reproducible from the base
/// seed alone, no matter how many tasks run or in which order they finish.
std::uint64_t task_seed(std::uint64_t base, std::uint64_t index);

/// Runs `fn(0) .. fn(count-1)` — independent simulations of one sweep —
/// across `jobs` threads and returns the results **in task-index order**.
///
/// The determinism contract: given a thread-safe, task-pure `fn` (each
/// invocation depends only on its index and on immutable or compute-once
/// shared state, like PairRunner's memoized solo baselines), the returned
/// vector is identical for every `jobs` value, so a consumer that writes
/// CSV rows from it serially produces byte-identical files at any
/// parallelism. With jobs <= 1 (or a single task) no thread is spawned and
/// the calls happen inline, in order.
///
/// If a task throws, the exception of the lowest-indexed failing task is
/// rethrown here after all started tasks have completed (the pool drains
/// on destruction, so no task is left running against dead stack frames).
template <typename Fn>
auto sweep_ordered(std::size_t count, Fn&& fn, int jobs = sweep_jobs())
    -> std::vector<std::invoke_result_t<std::decay_t<Fn>&, std::size_t>> {
  using Result = std::invoke_result_t<std::decay_t<Fn>&, std::size_t>;
  static_assert(!std::is_void_v<Result>,
                "sweep_ordered tasks must return a value");
  std::vector<Result> results;
  results.reserve(count);
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) results.push_back(fn(i));
    return results;
  }
  ThreadPool pool(static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), count)));
  std::vector<std::future<Result>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool.submit([&fn, i]() -> Result { return fn(i); }));
  }
  // Ordered collection is what makes the parallel sweep's output stream
  // indistinguishable from the serial one's.
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

}  // namespace dps
