#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace edgerep {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForSingleRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++n;
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 57) {
                                     throw std::logic_error("bad index");
                                   }
                                 }),
               std::logic_error);
}

TEST(ThreadPool, ParallelResultsMatchSerial) {
  // Deterministic per-index work: results identical no matter the schedule.
  ThreadPool pool(8);
  std::vector<double> parallel_out(500);
  std::vector<double> serial_out(500);
  auto work = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 1; k <= i % 97 + 1; ++k) {
      acc += static_cast<double>(k * i % 13);
    }
    return acc;
  };
  pool.parallel_for(500, [&](std::size_t i) { parallel_out[i] = work(i); });
  for (std::size_t i = 0; i < 500; ++i) serial_out[i] = work(i);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ThreadPool, ParallelForBlockedCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_for_blocked(hits.size(), [&](std::size_t b, std::size_t e) {
    ASSERT_LE(b, e);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForBlockedZeroAndOne) {
  ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for_blocked(0, [&](std::size_t, std::size_t) {
    touched = true;
  });
  EXPECT_FALSE(touched);
  // n == 1 runs inline as a single [0, 1) block.
  pool.parallel_for_blocked(1, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
    touched = true;
  });
  EXPECT_TRUE(touched);
}

TEST(ThreadPool, ParallelForBlockedPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_blocked(1000,
                                [&](std::size_t b, std::size_t e) {
                                  for (std::size_t i = b; i < e; ++i) {
                                    if (i == 613) {
                                      throw std::logic_error("bad block");
                                    }
                                  }
                                }),
      std::logic_error);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // Every worker runs an outer index whose body waits on an inner call to
  // the same pool.  Queued inner tasks would never run; inline ones do.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

}  // namespace
}  // namespace edgerep
