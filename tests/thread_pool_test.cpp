#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace dps {
namespace {

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool{0}, std::invalid_argument);
  EXPECT_THROW(ThreadPool{-3}, std::invalid_argument);
}

TEST(ThreadPool, ReportsSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPool, FuturesDeliverResultsForEveryTask) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, CollectingFuturesInSubmissionOrderIsDeterministic) {
  // The sweep layer's ordering contract: regardless of which worker runs
  // which task, futures collected in submission order reproduce the serial
  // result sequence.
  ThreadPool pool(8);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] {
      // Perturb completion order on purpose.
      std::this_thread::sleep_for(std::chrono::microseconds((64 - i) * 10));
      return i;
    }));
  }
  std::vector<int> collected;
  for (auto& future : futures) collected.push_back(future.get());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(collected[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto boom = pool.submit([]() -> int {
    throw std::runtime_error("task exploded");
  });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(boom.get(), std::runtime_error);
}

TEST(ThreadPool, ExceptionInOneTaskDoesNotPoisonOthers) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([i]() -> int {
      if (i % 5 == 0) throw std::runtime_error("every fifth");
      return i;
    }));
  }
  int succeeded = 0, failed = 0;
  for (int i = 0; i < 20; ++i) {
    try {
      EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
      ++succeeded;
    } catch (const std::runtime_error&) {
      ++failed;
    }
  }
  EXPECT_EQ(succeeded, 16);
  EXPECT_EQ(failed, 4);
}

TEST(ThreadPool, AllWorkersRunConcurrently) {
  // A latch that only opens once every worker holds a task proves the pool
  // really runs `size` tasks at once (a serial or undersized pool would
  // deadlock here — bounded by the gtest timeout).
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::latch all_started(kThreads);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < kThreads; ++i) {
    futures.push_back(pool.submit([&all_started] {
      all_started.arrive_and_wait();
    }));
  }
  for (auto& future : futures) future.get();
}

TEST(ThreadPool, ShutdownUnderLoadDrainsEveryTask) {
  // Destroy the pool while tasks are still queued: every future must still
  // become ready (the destructor drains instead of dropping).
  std::atomic<int> executed{0};
  std::vector<std::future<int>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.submit([i, &executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        executed.fetch_add(1, std::memory_order_relaxed);
        return i;
      }));
    }
  }  // ~ThreadPool joins here
  EXPECT_EQ(executed.load(), 200);
  for (int i = 0; i < 200; ++i) {
    auto& future = futures[static_cast<std::size_t>(i)];
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(future.get(), i);
  }
}

TEST(ThreadPool, SubmitFromManyThreads) {
  // Producers on several threads share one pool; all tasks complete and
  // none is lost or double-run.
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &total] {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 50; ++i) {
        futures.push_back(pool.submit(
            [&total] { total.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(total.load(), 200);
}

// run_blocks, the one claim-and-rethrow mechanism of the tree's leaf tier
// and the engine's physics blocks: with a pool every index runs exactly
// once across the calling thread and the workers, a throwing block stops
// neither its thread nor the others, and the call returns only after every
// task has finished, rethrowing the lowest failing block's exception.
// Without a pool the blocks run in order up to the first throw.
TEST(RunBlocks, RunsEveryBlockOnceWaitsForAllAndRethrowsTheLowestFailure) {
  ThreadPool pool(3);
  struct Setup {
    ThreadPool* pool;
    Caller caller;
    std::size_t claim;
  };
  for (const Setup setup : {Setup{nullptr, Caller::kClaims, 1},
                            Setup{&pool, Caller::kClaims, 1},
                            Setup{&pool, Caller::kClaims, 4},
                            Setup{&pool, Caller::kWaits, 1},
                            Setup{&pool, Caller::kWaits, 4}}) {
    SCOPED_TRACE(std::string(setup.pool ? "pool" : "inline") +
                 (setup.caller == Caller::kClaims ? ", caller claims"
                                                  : ", caller waits") +
                 ", claim " + std::to_string(setup.claim));
    constexpr std::size_t kBlocks = 37;
    std::vector<std::atomic<int>> runs(kBlocks);
    std::atomic<int> finished{0};
    try {
      run_blocks(setup.pool, setup.caller, kBlocks, setup.claim,
                 [&](std::size_t b) {
                   runs[b].fetch_add(1);
                   if (b == 29 || b == 11) {
                     throw std::runtime_error("block " + std::to_string(b));
                   }
                   // Slow blocks keep other tasks running when the throws
                   // happen.
                   std::this_thread::sleep_for(std::chrono::microseconds(200));
                   finished.fetch_add(1);
                 });
      ADD_FAILURE() << "run_blocks did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "block 11");
    }
    // Nothing runs after the rethrow.
    const int at_throw = finished.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(finished.load(), at_throw);
    const bool inline_run = setup.pool == nullptr;
    EXPECT_EQ(at_throw, inline_run ? 11 : static_cast<int>(kBlocks) - 2);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      EXPECT_EQ(runs[b].load(), inline_run && b > 11 ? 0 : 1) << "block " << b;
    }
  }
  // No blocks: no call, no throw.
  run_blocks(&pool, Caller::kClaims, 0, 1, [](std::size_t) { FAIL(); });
}

// Caller::kClaims puts the calling thread beside every worker: three
// blocks on a two-worker pool are all in flight at once, on three threads.
// Caller::kWaits leaves every block to the workers.
TEST(RunBlocks, CallerClaimsOrWaits) {
  ThreadPool pool(2);
  for (const Caller caller : {Caller::kClaims, Caller::kWaits}) {
    const bool claims = caller == Caller::kClaims;
    SCOPED_TRACE(claims ? "caller claims" : "caller waits");
    const int blocks = claims ? 3 : 2;
    std::atomic<int> in_flight{0};
    std::mutex mu;
    std::set<std::thread::id> threads;
    run_blocks(&pool, caller, static_cast<std::size_t>(blocks), 1,
               [&](std::size_t) {
                 in_flight.fetch_add(1);
                 {
                   std::lock_guard<std::mutex> lock(mu);
                   threads.insert(std::this_thread::get_id());
                 }
                 // Bounded wait, so a broken pool fails instead of hanging.
                 for (int i = 0; i < 2000 && in_flight.load() < blocks; ++i) {
                   std::this_thread::sleep_for(std::chrono::milliseconds(1));
                 }
               });
    EXPECT_EQ(in_flight.load(), blocks);
    EXPECT_EQ(threads.size(), static_cast<std::size_t>(blocks));
    EXPECT_EQ(threads.count(std::this_thread::get_id()), claims ? 1u : 0u);
  }
}

}  // namespace
}  // namespace dps
