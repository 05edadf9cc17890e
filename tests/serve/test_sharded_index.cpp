// Sharding is a serving-layer layout decision — it must never change an
// answer.  These tests pin the bit-identity of range and kNN execution over
// a ShardedIndex against the unsharded executors for every shard count, plus
// the structural invariants of the shard key-range table itself.
#include "sfc/serve/sharded_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/executor.h"
#include "sfc/index/point_index.h"
#include "sfc/rng/sampling.h"

namespace sfc {
namespace {

struct Workload {
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;
  std::vector<Box> boxes;
  std::vector<Point> queries;
};

Workload make_workload(const std::string& family, coord_t side,
                       std::uint64_t seed) {
  CurveDescriptor descriptor;
  descriptor.family = family;
  descriptor.dim = 2;
  descriptor.side = side;
  descriptor.seed = 3;
  CurvePtr curve = make_curve(descriptor);
  const Universe u = curve->universe();
  Xoshiro256 rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < 3000; ++i) points.push_back(random_cell(u, rng));
  PointIndex index = PointIndex::build(*curve, points);
  std::vector<Box> boxes;
  std::vector<Point> queries;
  for (int i = 0; i < 60; ++i) boxes.push_back(random_box(u, 7, rng));
  for (int i = 0; i < 60; ++i) queries.push_back(random_cell(u, rng));
  return Workload{std::move(curve), std::move(points), std::move(index),
                  std::move(boxes), std::move(queries)};
}

TEST(ShardedIndex, ShardsPartitionTheRows) {
  const Workload w = make_workload("hilbert", 64, 17);
  const IndexColumnsView& base = w.index.view();
  for (const int bits : {0, 1, 3, 5}) {
    const ShardedIndex sharded(base, bits);
    ASSERT_EQ(sharded.shard_count(), std::size_t{1} << bits);
    std::uint64_t total = 0;
    index_t previous_hi = 0;
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
      const KeyInterval range = sharded.shard_key_range(s);
      if (s > 0) {
        EXPECT_EQ(range.lo, previous_hi + 1) << "shard " << s;
      }
      previous_hi = range.hi;
      const std::uint64_t begin = sharded.shard_row_begin(s);
      const std::uint64_t end = sharded.shard_row_begin(s + 1);
      EXPECT_EQ(begin, total) << "shard " << s;
      ASSERT_LE(begin, end) << "shard " << s;
      for (std::uint64_t r = begin; r < end; ++r) {
        const index_t key = base.key_of_row(r);
        EXPECT_GE(key, range.lo) << "shard " << s << " row " << r;
        EXPECT_LE(key, range.hi) << "shard " << s << " row " << r;
      }
      // The shard's row slice is exactly the base rows of its key range.
      EXPECT_EQ(base.rows_in_interval(range.lo, range.hi),
                std::make_pair(begin, end))
          << "shard " << s;
      total = end;
    }
    EXPECT_EQ(total, w.index.row_count()) << "shard_bits " << bits;
  }
}

TEST(ShardedIndex, ShardBitsClampToKeyWidth) {
  const Workload w = make_workload("z", 8, 19);  // 64 cells -> 6 key bits
  const ShardedIndex sharded(w.index.view(), 60);
  EXPECT_EQ(sharded.shard_bits(), 6);
  EXPECT_EQ(sharded.shard_count(), 64u);
}

TEST(ShardedIndex, RangeQueriesBitIdenticalToUnsharded) {
  for (const std::string family : {"hilbert", "z", "simple", "random"}) {
    const Workload w = make_workload(family, 64, 29);
    const auto reference = run_range_queries(w.index.view(), w.boxes);
    for (const int bits : {0, 1, 2, 4, 6}) {
      const ShardedIndex sharded(w.index.view(), bits);
      const auto sharded_results = run_range_queries(sharded, w.boxes);
      ASSERT_EQ(sharded_results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(sharded_results[i].ids, reference[i].ids)
            << family << " shard_bits " << bits << " box " << i;
        EXPECT_EQ(sharded_results[i].stats.rows_returned,
                  reference[i].stats.rows_returned);
        // Exact covers never overscan, sharded or not.
        EXPECT_EQ(sharded_results[i].stats.rows_scanned,
                  sharded_results[i].stats.rows_returned);
      }
    }
  }
}

TEST(ShardedIndex, KnnQueriesBitIdenticalToUnsharded) {
  for (const std::string family : {"hilbert", "z", "snake", "random"}) {
    const Workload w = make_workload(family, 64, 31);
    for (const std::uint32_t k : {1u, 5u, 16u}) {
      const auto reference = run_knn_queries(w.index.view(), w.queries, k);
      for (const int bits : {1, 3, 6}) {
        const ShardedIndex sharded(w.index.view(), bits);
        const auto sharded_results = run_knn_queries(sharded, w.queries, k);
        ASSERT_EQ(sharded_results.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(sharded_results[i].neighbors, reference[i].neighbors)
              << family << " shard_bits " << bits << " k " << k << " query "
              << i;
        }
      }
    }
  }
}

TEST(ShardedIndex, DeterministicAcrossPoolsAndGrains) {
  const Workload w = make_workload("hilbert", 64, 37);
  const ShardedIndex sharded(w.index.view(), 3);
  const auto reference = run_range_queries(sharded, w.boxes);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const std::uint64_t grain : {1u, 7u, 1000u}) {
      MultiQueryOptions options;
      options.pool = &pool;
      options.grain = grain;
      const auto results = run_range_queries(sharded, w.boxes, options);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(results[i].ids, reference[i].ids)
            << threads << " threads, grain " << grain;
      }
    }
  }
}

TEST(ShardedIndex, NonPowerOfTwoUniverseShards) {
  // Peano: 27x27 = 729 cells, keys need 10 bits; the top shards are simply
  // emptier.  Sharding must still partition and answer identically.
  const Workload w = make_workload("peano", 27, 41);
  const auto reference = run_knn_queries(w.index.view(), w.queries, 4);
  const ShardedIndex sharded(w.index.view(), 4);
  EXPECT_EQ(sharded.shard_row_begin(sharded.shard_count()),
            w.index.row_count());
  const auto results = run_knn_queries(sharded, w.queries, 4);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(results[i].neighbors, reference[i].neighbors) << "query " << i;
  }
}

TEST(ShardedIndex, EmptyBaseView) {
  CurveDescriptor descriptor;
  descriptor.family = "z";
  descriptor.dim = 2;
  descriptor.side = 16;
  const CurvePtr curve = make_curve(descriptor);
  const PointIndex index = PointIndex::build(*curve, {});
  const ShardedIndex sharded(index.view(), 3);
  EXPECT_EQ(sharded.shard_count(), 8u);
  const std::vector<Box> boxes = {Box(Point{0, 0}, Point{15, 15})};
  const auto results = run_range_queries(sharded, boxes);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ids.empty());
}

}  // namespace
}  // namespace sfc
