// End-to-end equivalence of the slab-streamed metrics engine with the scalar
// per-cell sweep in sfc_oracles, straddling slab boundaries and thread
// counts.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "sfc/apps/range_query.h"
#include "sfc/core/nn_stretch.h"
#include "sfc/core/stretch_distribution.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc_oracles/scalar_nn_stretch.h"

namespace sfc {
namespace {

// Every floating-point field must be bit-identical between the engine and
// the oracle, so plain == is the right comparison.
void expect_identical(const NNStretchResult& a, const NNStretchResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.average_average, b.average_average) << context;
  EXPECT_EQ(a.average_maximum, b.average_maximum) << context;
  EXPECT_EQ(a.average_minimum, b.average_minimum) << context;
  EXPECT_EQ(a.min_cell_stretch, b.min_cell_stretch) << context;
  EXPECT_EQ(a.max_cell_stretch, b.max_cell_stretch) << context;
  EXPECT_EQ(a.lemma3_lower, b.lemma3_lower) << context;
  EXPECT_EQ(a.lemma3_upper, b.lemma3_upper) << context;
  EXPECT_TRUE(a.nn_distance_total == b.nn_distance_total) << context;
  for (std::size_t i = 0; i < a.lambda.size(); ++i) {
    EXPECT_TRUE(a.lambda[i] == b.lambda[i]) << context << " lambda " << i;
  }
}

NNStretchOptions with(std::uint64_t grain, ThreadPool* pool = nullptr) {
  NNStretchOptions options;
  options.grain = grain;
  options.pool = pool;
  return options;
}

TEST(MetricsEngine, SlabMatchesScalarEveryFamily2D) {
  // 1024 cells with grain 32: several slabs, several reduction chunks per
  // slab.
  const Universe u = Universe::pow2(2, 5);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 11);
    for (const std::uint64_t grain : {std::uint64_t{32}, std::uint64_t{1} << 16}) {
      expect_identical(compute_nn_stretch(*curve, with(grain)),
                       oracles::scalar_nn_stretch(*curve, with(grain)),
                       family_name(family) + " grain " + std::to_string(grain));
    }
  }
}

TEST(MetricsEngine, SlabMatchesScalarEveryFamily3D) {
  // 4096 cells, halo 256: cross-plane neighbors straddle slab boundaries at
  // grain 256.
  const Universe u = Universe::pow2(3, 4);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 7);
    expect_identical(compute_nn_stretch(*curve, with(256)),
                     oracles::scalar_nn_stretch(*curve, with(256)),
                     family_name(family) + " 3d");
  }
}

TEST(MetricsEngine, SlabDeterministicAcrossThreadCounts) {
  const Universe u2 = Universe::pow2(2, 5);
  const Universe u3 = Universe::pow2(3, 3);
  ThreadPool one(1), two(2), eight(8);
  for (const Universe* u : {&u2, &u3}) {
    const CurvePtr z = make_curve(CurveFamily::kZ, *u);
    const NNStretchResult a = compute_nn_stretch(*z, with(64, &one));
    const NNStretchResult b = compute_nn_stretch(*z, with(64, &two));
    const NNStretchResult c = compute_nn_stretch(*z, with(64, &eight));
    expect_identical(a, b, "1 vs 2 threads");
    expect_identical(a, c, "1 vs 8 threads");
  }
}

TEST(MetricsEngine, SlabMatchesPerCellHelpers3D) {
  const Universe u = Universe::pow2(3, 2);
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  long double avg = 0.0L, max = 0.0L;
  for (index_t id = 0; id < u.cell_count(); ++id) {
    const Point cell = u.from_row_major(id);
    avg += static_cast<long double>(cell_average_stretch(*h, cell));
    max += static_cast<long double>(cell_maximum_stretch(*h, cell));
  }
  const NNStretchResult r = compute_nn_stretch(*h);
  const auto n = static_cast<long double>(u.cell_count());
  EXPECT_NEAR(static_cast<double>(avg / n), r.average_average, 1e-12);
  EXPECT_NEAR(static_cast<double>(max / n), r.average_maximum, 1e-12);
}

TEST(MetricsEngine, StretchDistributionMatchesPerCellHelpers) {
  for (const Universe& u : {Universe::pow2(2, 4), Universe::pow2(3, 2)}) {
    const CurvePtr z = make_curve(CurveFamily::kZ, u);
    const StretchDistribution dist = compute_stretch_distribution(*z);

    long double avg_sum = 0.0L;
    double avg_max = 0.0;
    for (index_t id = 0; id < u.cell_count(); ++id) {
      const double cell = cell_average_stretch(*z, u.from_row_major(id));
      avg_sum += static_cast<long double>(cell);
      avg_max = std::max(avg_max, cell);
    }
    EXPECT_NEAR(
        dist.cell_average.mean,
        static_cast<double>(avg_sum / static_cast<long double>(u.cell_count())),
        1e-12);
    EXPECT_DOUBLE_EQ(dist.cell_average.max, avg_max);
    // The distribution mean of δavg is Davg by definition.
    const NNStretchResult r = compute_nn_stretch(*z);
    EXPECT_NEAR(dist.cell_average.mean, r.average_average, 1e-12);
    EXPECT_NEAR(dist.cell_maximum.mean, r.average_maximum, 1e-12);
    EXPECT_NEAR(dist.cell_minimum.mean, r.average_minimum, 1e-12);
  }
}

TEST(MetricsEngine, GrainZeroMatchesGrainOneAtEveryEntryPoint) {
  // Grain 0 means grain 1 wherever a reduction grain is taken: the results
  // must be bit-identical, and nothing may divide by zero.
  ThreadPool pool(2);

  const CurvePtr h = make_curve(CurveFamily::kHilbert, Universe::pow2(2, 4));
  const NNStretchOptions zero = with(0, &pool);
  const NNStretchOptions one = with(1, &pool);
  expect_identical(compute_nn_stretch(*h, zero), compute_nn_stretch(*h, one),
                   "compute_nn_stretch");
  expect_identical(oracles::scalar_nn_stretch(*h, zero),
                   oracles::scalar_nn_stretch(*h, one), "scalar_nn_stretch");
  const auto lambda_zero = compute_lambda(*h, zero);
  const auto lambda_one = compute_lambda(*h, one);
  for (std::size_t i = 0; i < lambda_zero.size(); ++i) {
    EXPECT_TRUE(lambda_zero[i] == lambda_one[i]) << "compute_lambda " << i;
  }

  const CurvePtr z = make_curve(CurveFamily::kZ, Universe::pow2(2, 6));
  const ClusteringOptions cluster_zero{.pool = &pool, .grain = 0};
  const ClusteringOptions cluster_one{.pool = &pool, .grain = 1};
  const ClusteringStats c0 = random_box_clustering(*z, 4, 50, 9, cluster_zero);
  const ClusteringStats c1 = random_box_clustering(*z, 4, 50, 9, cluster_one);
  EXPECT_EQ(c0.mean_runs, c1.mean_runs);
  EXPECT_EQ(c0.stderr_runs, c1.stderr_runs);
  EXPECT_EQ(c0.max_runs, c1.max_runs);

  std::vector<Point> points;
  for (coord_t x = 0; x < 64; x += 3) {
    for (coord_t y = 0; y < 64; y += 5) points.push_back(Point{x, y});
  }
  const PointIndex index = PointIndex::build(*z, points);
  const ScanEfficiencyStats s0 =
      random_box_scan_efficiency(index, 8, 50, 9, cluster_zero);
  const ScanEfficiencyStats s1 =
      random_box_scan_efficiency(index, 8, 50, 9, cluster_one);
  EXPECT_EQ(s0.mean_rows_returned, s1.mean_rows_returned);
  EXPECT_EQ(s0.mean_rows_scanned, s1.mean_rows_scanned);
  EXPECT_EQ(s0.mean_runs, s1.mean_runs);
  EXPECT_EQ(s0.mean_runs_touched, s1.mean_runs_touched);
  EXPECT_EQ(s0.full_scan_ratio, s1.full_scan_ratio);
}

}  // namespace
}  // namespace sfc
