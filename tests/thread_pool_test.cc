#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace wnrs {
namespace {

TEST(ThreadPoolTest, HardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, DefaultSizeFollowsHardware) {
  ThreadPool pool;
  EXPECT_EQ(pool.num_threads(), ThreadPool::HardwareConcurrency());
}

TEST(ThreadPoolTest, EachIndexRunsExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 10000;
    std::vector<int> hits(kN, 0);
    pool.ParallelFor(0, kN, [&](size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(kN))
        << "threads=" << threads;
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i], 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, RespectsRangeOffset) {
  ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(30, 70, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 30 && i < 70) ? 1 : 0) << "i=" << i;
  }
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoops) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelMapMatchesSerialMap) {
  ThreadPool pool(4);
  constexpr size_t kN = 2048;
  const std::vector<double> out =
      pool.ParallelMap<double>(kN, [](size_t i) { return 0.5 * i; });
  ASSERT_EQ(out.size(), kN);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], 0.5 * i);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 64;
  constexpr size_t kInner = 64;
  std::vector<std::vector<int>> hits(kOuter,
                                     std::vector<int>(kInner, 0));
  pool.ParallelFor(0, kOuter, [&](size_t o) {
    pool.ParallelFor(0, kInner, [&](size_t i) { ++hits[o][i]; });
  });
  for (size_t o = 0; o < kOuter; ++o) {
    for (size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(hits[o][i], 1) << "o=" << o << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, SingleElementRangeMayStillParallelizeInside) {
  ThreadPool pool(4);
  std::vector<int> hits(256, 0);
  // A one-element outer loop runs inline without marking the thread as
  // inside a parallel region, so the inner loop can still use the pool.
  pool.ParallelFor(0, 1, [&](size_t) {
    pool.ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "i=" << i;
  }
}

// Loops submitted from several external threads at once share the
// workers; every loop still runs each of its indices exactly once.
TEST(ThreadPoolTest, ConcurrentSubmittersEachRunEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kSubmitters = 4;
  constexpr size_t kN = 1024;
  std::vector<std::vector<int>> hits(kSubmitters, std::vector<int>(kN, 0));
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        pool.ParallelFor(0, kN, [&](size_t i) { ++hits[t][i]; });
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  for (size_t t = 0; t < kSubmitters; ++t) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[t][i], 20) << "submitter=" << t << " i=" << i;
    }
  }
}

// Two external submitters' loops run at the same time rather than one
// after the other: every body of each loop waits (bounded) until the
// other loop's first index has run. If the pool ran the loops in turn,
// the first one's bodies would all time out.
TEST(ThreadPoolTest, ConcurrentSubmittersRunTheirLoopsAtOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 8;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<bool> started[2] = {false, false};
  std::atomic<size_t> met[2] = {0, 0};
  auto run = [&](int self) {
    pool.ParallelFor(0, kN, [&](size_t) {
      started[self].store(true);
      while (!started[1 - self].load() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      if (started[1 - self].load()) met[self].fetch_add(1);
    });
  };
  std::thread other([&] { run(1); });
  run(0);
  other.join();
  EXPECT_EQ(met[0].load(), kN);
  EXPECT_EQ(met[1].load(), kN);
}

TEST(ThreadPoolTest, ManySmallJobsDoNotLeakOrHang) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 500; ++round) {
    pool.ParallelFor(0, 8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 500u * 8u);
}

TEST(ThreadPoolTest, OneThreadPoolOwnsNoWorkersAndRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(64);
  pool.ParallelFor(0, ran.size(),
                   [&](size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, caller);
  }
}

}  // namespace
}  // namespace wnrs
