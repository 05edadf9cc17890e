#include "sfc/parallel/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

namespace sfc {
namespace {

TEST(ChunkCount, Values) {
  EXPECT_EQ(chunk_count(0, 10), 0u);
  EXPECT_EQ(chunk_count(1, 10), 1u);
  EXPECT_EQ(chunk_count(10, 10), 1u);
  EXPECT_EQ(chunk_count(11, 10), 2u);
  EXPECT_EQ(chunk_count(100, 10), 10u);
  EXPECT_EQ(chunk_count(7, 0), chunk_count(7, 1));  // grain 0 means 1
}

TEST(ParallelForChunks, CoversRangeWithoutOverlap) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1237);
  parallel_for_chunks(pool, hits.size(), 100, [&](const ChunkRange& range) {
    EXPECT_LE(range.end, hits.size());
    EXPECT_LT(range.begin, range.end);
    for (std::uint64_t i = range.begin; i < range.end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelForChunks, ChunkIndicesAreSequential) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> seen(13);
  parallel_for_chunks(pool, 1250, 100, [&](const ChunkRange& range) {
    EXPECT_EQ(range.begin, range.chunk_index * 100);
    seen[range.chunk_index].fetch_add(1);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ParallelFor, ElementwiseCoverage) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(pool, hits.size(), [&](std::uint64_t i) { hits[i].fetch_add(1); },
               64);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelReduce, IntegerSum) {
  ThreadPool pool(4);
  const std::uint64_t n = 100000;
  const std::uint64_t total = parallel_reduce<std::uint64_t>(
      pool, n, 1000, 0,
      [&](const ChunkRange& range) {
        std::uint64_t sum = 0;
        for (std::uint64_t i = range.begin; i < range.end; ++i) sum += i;
        return sum;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

// The load-bearing property: floating-point reductions are bit-identical for
// any thread count because chunk boundaries are fixed and partials are
// combined in chunk order.
TEST(ParallelReduce, DeterministicAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    return parallel_reduce<double>(
        pool, 345678, 1 << 12, 0.0,
        [&](const ChunkRange& range) {
          double sum = 0.0;
          for (std::uint64_t i = range.begin; i < range.end; ++i) {
            sum += std::sqrt(static_cast<double>(i)) * 1e-3;
          }
          return sum;
        },
        [](double a, double b) { return a + b; });
  };
  const double one = run(1);
  const double two = run(2);
  const double eight = run(8);
  // Bit-identical, not just close.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(ParallelReduce, EmptyRangeYieldsIdentity) {
  ThreadPool pool(2);
  const int result = parallel_reduce<int>(
      pool, 0, 10, -7, [](const ChunkRange&) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, -7);
}

TEST(ParallelFor, GrainZeroTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for_chunks(pool, 5, 0, [&](const ChunkRange& range) {
    EXPECT_EQ(range.end - range.begin, 1u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 5);
}

}  // namespace
}  // namespace sfc
