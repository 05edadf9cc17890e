#include "sfc/apps/range_query.h"

#include <gtest/gtest.h>

#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/curves/simple_curve.h"
#include "sfc/ranges/range_cover.h"

namespace sfc {
namespace {

TEST(RangeQuery, FullRowIsOneRun) {
  // A full row of the row-major order is one contiguous key run.
  const Universe u(2, 8);
  const SimpleCurve s(u);
  const Box row(Point{0, 3}, Point{7, 3});
  EXPECT_EQ(count_key_runs(s, row), 1u);
}

TEST(RangeQuery, ColumnIsOneRunPerCell) {
  // A column crosses every row: side runs.
  const Universe u(2, 8);
  const SimpleCurve s(u);
  const Box column(Point{3, 0}, Point{3, 7});
  EXPECT_EQ(count_key_runs(s, column), 8u);
}

TEST(RangeQuery, RectangleRunsEqualRowCountForSimpleCurve) {
  // A w x h rectangle under row-major order is h runs (one per row) unless
  // it spans full rows.
  const Universe u(2, 8);
  const SimpleCurve s(u);
  EXPECT_EQ(count_key_runs(s, Box(Point{1, 2}, Point{4, 6})), 5u);
  // Full-width rectangle collapses to a single run.
  EXPECT_EQ(count_key_runs(s, Box(Point{0, 2}, Point{7, 6})), 1u);
}

TEST(RangeQuery, SingleCellIsOneRun) {
  const Universe u = Universe::pow2(2, 3);
  for (CurveFamily family : analytic_curve_families()) {
    const CurvePtr curve = make_curve(family, u);
    EXPECT_EQ(count_key_runs(*curve, Box(Point{5, 2}, Point{5, 2})), 1u)
        << family_name(family);
  }
}

TEST(RangeQuery, WholeUniverseIsOneRun) {
  // Every bijection covers the full key range contiguously.
  const Universe u = Universe::pow2(2, 2);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 2);
    EXPECT_EQ(count_key_runs(*curve, Box::full(u)), 1u) << family_name(family);
  }
}

TEST(RangeQuery, HilbertQuadrantIsOneRun) {
  // Hilbert's defining property: each power-of-two quadrant is a contiguous
  // curve segment.
  const Universe u = Universe::pow2(2, 3);
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  const coord_t half = u.side() / 2;
  for (coord_t qx : {coord_t{0}, half}) {
    for (coord_t qy : {coord_t{0}, half}) {
      const Box quadrant(Point{qx, qy},
                         Point{static_cast<coord_t>(qx + half - 1),
                               static_cast<coord_t>(qy + half - 1)});
      EXPECT_EQ(count_key_runs(*h, quadrant), 1u);
    }
  }
}

TEST(RangeQuery, ZQuadrantIsOneRun) {
  // Z-order quadrants are also contiguous (keys share their top bits).
  const Universe u = Universe::pow2(2, 3);
  const CurvePtr z = make_curve(CurveFamily::kZ, u);
  const coord_t half = u.side() / 2;
  const Box quadrant(Point{0, 0}, Point{static_cast<coord_t>(half - 1),
                                        static_cast<coord_t>(half - 1)});
  EXPECT_EQ(count_key_runs(*z, quadrant), 1u);
}

TEST(RangeQuery, EnginesAgreeOnEveryFamily) {
  // count_key_runs defaults to the hierarchical cover engine where the curve
  // supports it; the streaming enumeration reference must agree exactly.
  const Universe u = Universe::pow2(2, 4);
  const Box box(Point{1, 3}, Point{11, 9});
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 4);
    const index_t reference = count_key_runs_enumeration(*curve, box);
    EXPECT_EQ(count_key_runs(*curve, box), reference) << family_name(family);
    EXPECT_EQ(count_key_runs(*curve, box, RunCountEngine::kCover), reference)
        << family_name(family);
    EXPECT_EQ(count_key_runs(*curve, box, RunCountEngine::kEnumeration),
              reference)
        << family_name(family);
  }
}

TEST(RangeQuery, RandomBoxClusteringStats) {
  const Universe u = Universe::pow2(2, 4);
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  const ClusteringStats stats = random_box_clustering(*h, 4, 100, 77);
  EXPECT_EQ(stats.samples, 100u);
  EXPECT_EQ(stats.extent, 4u);
  EXPECT_EQ(stats.cells_per_box, 16u);
  EXPECT_GE(stats.mean_runs, 1.0);
  EXPECT_LE(stats.mean_runs, 16.0);
  EXPECT_LE(stats.max_runs, 16.0);
}

TEST(RangeQuery, ExtentOutsideTheUniverseThrowsTypedError) {
  const CurvePtr z = make_curve(CurveFamily::kZ, Universe::pow2(2, 4));
  const PointIndex index =
      PointIndex::build(*z, std::vector<Point>{Point{1, 2}, Point{9, 3}});
  for (const coord_t extent : {coord_t{0}, coord_t{17}, ~coord_t{0}}) {
    EXPECT_THROW(random_box_clustering(*z, extent, 10, 1), RangeArgumentError)
        << "extent " << extent;
    EXPECT_THROW(random_box_scan_efficiency(index, extent, 10, 1),
                 RangeArgumentError)
        << "extent " << extent;
  }
  // Both ends of [1, side] are valid.
  EXPECT_EQ(random_box_clustering(*z, 1, 10, 1).mean_runs, 1.0);
  EXPECT_EQ(random_box_clustering(*z, 16, 10, 1).mean_runs, 1.0);
}

TEST(RangeQuery, ClusteringDeterministicInSeed) {
  const Universe u = Universe::pow2(2, 4);
  const CurvePtr z = make_curve(CurveFamily::kZ, u);
  const ClusteringStats a = random_box_clustering(*z, 3, 50, 5);
  const ClusteringStats b = random_box_clustering(*z, 3, 50, 5);
  EXPECT_EQ(a.mean_runs, b.mean_runs);
}

TEST(RangeQuery, HilbertClustersBetterThanRandom) {
  // The application-level consequence of locality: Hilbert needs far fewer
  // disk runs per query box than a random bijection.
  const Universe u = Universe::pow2(2, 4);
  const CurvePtr hilbert = make_curve(CurveFamily::kHilbert, u);
  const CurvePtr random = make_curve(CurveFamily::kRandom, u, 6);
  const double hilbert_runs = random_box_clustering(*hilbert, 4, 100, 9).mean_runs;
  const double random_runs = random_box_clustering(*random, 4, 100, 9).mean_runs;
  EXPECT_LT(hilbert_runs, random_runs / 2);
}

}  // namespace
}  // namespace sfc
