#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace veil::common {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelMapPreservesOrdering) {
  ThreadPool pool(8);
  const auto out =
      pool.parallel_map(5000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 5000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  pool.parallel_for(64, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ParallelAndInlineProduceIdenticalResults) {
  ThreadPool serial(1);
  ThreadPool parallel(8);
  const auto fn = [](std::size_t i) { return (i * 2654435761u) ^ (i >> 3); };
  EXPECT_EQ(serial.parallel_map(4097, fn), parallel.parallel_map(4097, fn));
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [](std::size_t i) {
                          if (i == 777) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable after an exception (no stuck workers).
  const auto out = pool.parallel_map(100, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(out[99], 100u);
}

TEST(ThreadPool, ExceptionInInlineModePropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   10, [](std::size_t) { throw std::logic_error("inline"); }),
               std::logic_error);
}

TEST(ThreadPool, ManySmallRegionsStress) {
  ThreadPool pool(4);
  std::size_t total = 0;
  for (int round = 0; round < 2000; ++round) {
    std::atomic<std::size_t> sum{0};
    const std::size_t n = 1 + round % 7;
    pool.parallel_for(n, [&](std::size_t i) { sum.fetch_add(i + 1); });
    total += sum.load();
  }
  // Each round contributes n*(n+1)/2.
  std::size_t expect = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t n = 1 + round % 7;
    expect += n * (n + 1) / 2;
  }
  EXPECT_EQ(total, expect);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  pool.parallel_for(16, [&](std::size_t i) {
    // A nested region on a worker thread must not wait on the pool.
    pool.parallel_for(16, [&](std::size_t j) {
      hits[16 * i + j].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GlobalPoolRebuild) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().thread_count(), 3u);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().thread_count(), 1u);
  const auto out =
      ThreadPool::global().parallel_map(10, [](std::size_t i) { return i; });
  EXPECT_EQ(out.size(), 10u);
  ThreadPool::set_global_threads(4);
  EXPECT_EQ(ThreadPool::global().thread_count(), 4u);
}

TEST(ThreadPool, ZeroIterationRegionIsNoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_TRUE(pool.parallel_map(0, [](std::size_t i) { return i; }).empty());
}

}  // namespace
}  // namespace veil::common
