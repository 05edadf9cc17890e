// Brute-force equivalence of the hierarchical cover engine against the
// enumeration reference, for every curve family in 1D/2D/3D, over randomized
// boxes including the degenerate single-cell and full-universe cases.
#include "sfc/ranges/range_cover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sfc/apps/range_query.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/curves/diagonal_curve.h"
#include "sfc/curves/peano_curve.h"
#include "sfc/curves/spiral_curve.h"
#include "sfc/curves/tiled_curve.h"
#include "sfc/curves/zcurve.h"
#include "sfc/grid/box.h"
#include "sfc/rng/xoshiro256.h"

namespace sfc {
namespace {

/// A general (possibly non-cubic) random box inside the universe.
Box random_general_box(const Universe& u, Xoshiro256& rng) {
  Point lo = Point::zero(u.dim());
  Point hi = Point::zero(u.dim());
  for (int i = 0; i < u.dim(); ++i) {
    const coord_t a = static_cast<coord_t>(rng.next_below(u.side()));
    const coord_t b = static_cast<coord_t>(rng.next_below(u.side()));
    lo[i] = std::min(a, b);
    hi[i] = std::max(a, b);
  }
  return Box(lo, hi);
}

/// Checks every contract of RangeCoverEngine::cover on one box: intervals
/// are sorted, disjoint, maximal, cover exactly cell_count cells, and are
/// identical to the enumeration reference.
void expect_exact_cover(const SpaceFillingCurve& curve, const Box& box) {
  const std::string label = curve.name() + " d=" +
                            std::to_string(curve.universe().dim()) + " box " +
                            box.lo().to_string() + ".." + box.hi().to_string();
  CoverStats stats;
  const std::vector<KeyInterval> cover =
      RangeCoverEngine(curve).cover(box, &stats);
  const std::vector<KeyInterval> reference = cover_by_enumeration(curve, box);
  ASSERT_EQ(cover.size(), reference.size()) << label;
  EXPECT_EQ(cover, reference) << label;
  index_t covered = 0;
  for (std::size_t r = 0; r < cover.size(); ++r) {
    ASSERT_LE(cover[r].lo, cover[r].hi) << label;
    if (r > 0) {
      // Sorted, disjoint, and maximal: a gap of at least one key.
      ASSERT_GT(cover[r].lo, cover[r - 1].hi + 1) << label;
    }
    covered += cover[r].hi - cover[r].lo + 1;
  }
  EXPECT_EQ(covered, box.cell_count()) << label;
  // The merged-interval count is the clustering number, bit-identical
  // between both count_key_runs engines.
  const index_t runs_cover =
      count_key_runs(curve, box, RunCountEngine::kCover);
  const index_t runs_enum =
      count_key_runs(curve, box, RunCountEngine::kEnumeration);
  EXPECT_EQ(runs_cover, static_cast<index_t>(cover.size())) << label;
  EXPECT_EQ(runs_enum, runs_cover) << label;
  EXPECT_EQ(count_key_runs(curve, box), runs_cover) << label;
  EXPECT_EQ(stats.used_subtree, curve.has_subtree_traversal()) << label;
}

void expect_exact_covers_randomized(const SpaceFillingCurve& curve,
                                    std::uint64_t seed, int boxes) {
  const Universe& u = curve.universe();
  Xoshiro256 rng(seed);
  // Degenerate cases first: one cell (several placements) and the whole
  // universe (one interval for any bijection).
  for (int i = 0; i < 4; ++i) {
    const Point cell = random_cell(u, rng);
    expect_exact_cover(curve, Box(cell, cell));
  }
  const std::vector<KeyInterval> full =
      RangeCoverEngine(curve).cover(Box::full(u));
  ASSERT_EQ(full.size(), 1u) << curve.name();
  EXPECT_EQ(full[0], (KeyInterval{0, u.cell_count() - 1})) << curve.name();
  for (int i = 0; i < boxes; ++i) {
    expect_exact_cover(curve, random_general_box(u, rng));
  }
}

TEST(RangeCover, FactoryFamilies1D) {
  const Universe u = Universe::pow2(1, 6);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 7);
    expect_exact_covers_randomized(*curve, 11, 16);
  }
}

TEST(RangeCover, FactoryFamilies2D) {
  const Universe u = Universe::pow2(2, 4);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 7);
    expect_exact_covers_randomized(*curve, 12, 16);
  }
}

TEST(RangeCover, FactoryFamilies3D) {
  const Universe u = Universe::pow2(3, 3);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 7);
    expect_exact_covers_randomized(*curve, 13, 12);
  }
}

TEST(RangeCover, PeanoAllDims) {
  // The non-dyadic (triadic) hierarchical family: exact covers through the
  // generic decode-based subtree descent.
  for (const auto& [dim, side] : {std::pair<int, coord_t>{1, 27},
                                  {2, 27},
                                  {3, 9}}) {
    const PeanoCurve peano(Universe(dim, side));
    ASSERT_TRUE(peano.has_subtree_traversal());
    expect_exact_covers_randomized(peano, 14, 12);
  }
}

TEST(RangeCover, PermutedZ) {
  const PermutedZCurve z21(Universe::pow2(2, 4), {1, 0});
  ASSERT_TRUE(z21.has_subtree_traversal());
  expect_exact_covers_randomized(z21, 15, 16);
  const PermutedZCurve z312(Universe::pow2(3, 3), {2, 0, 1});
  expect_exact_covers_randomized(z312, 16, 10);
}

TEST(RangeCover, NonHierarchical2DCurves) {
  // Spiral, diagonal, tiled: exact answers through the enumeration fallback.
  const Universe u(2, 12);
  const SpiralCurve spiral(u);
  const DiagonalCurve diagonal(u);
  const TiledCurve tiled(u, 4);
  for (const SpaceFillingCurve* curve :
       {static_cast<const SpaceFillingCurve*>(&spiral),
        static_cast<const SpaceFillingCurve*>(&diagonal),
        static_cast<const SpaceFillingCurve*>(&tiled)}) {
    ASSERT_FALSE(curve->has_subtree_traversal()) << curve->name();
    expect_exact_covers_randomized(*curve, 17, 12);
  }
}

TEST(RangeCover, NonPowerOfTwoSidesUseFallback) {
  // Simple/snake accept any side; the cover entry point must stay exact.
  const Universe u(2, 6);
  for (CurveFamily family : {CurveFamily::kSimple, CurveFamily::kSnake}) {
    const CurvePtr curve = make_curve(family, u);
    expect_exact_covers_randomized(*curve, 18, 10);
  }
}

TEST(RangeCover, HilbertQuadrantsAreSingleIntervals) {
  // Each aligned power-of-two subcube of the Hilbert curve is one run, and
  // the descent finds it without visiting more than a root-to-node path.
  const Universe u = Universe::pow2(2, 6);
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  const coord_t half = u.side() / 2;
  for (coord_t qx : {coord_t{0}, half}) {
    for (coord_t qy : {coord_t{0}, half}) {
      CoverStats stats;
      const Box quadrant(
          Point{qx, qy},
          Point{static_cast<coord_t>(qx + half - 1),
                static_cast<coord_t>(qy + half - 1)});
      const auto cover = RangeCoverEngine(*h).cover(quadrant, &stats);
      ASSERT_EQ(cover.size(), 1u);
      EXPECT_EQ(cover[0].hi - cover[0].lo + 1, quadrant.cell_count());
      // Root + its 4 children, nothing deeper.
      EXPECT_LE(stats.nodes_visited, 5u);
    }
  }
}

TEST(RangeCover, HigherDimensionalHilbertStateDescent) {
  // 4D/5D exercise the d-bit rotation group of the Hilbert state descent
  // beyond what the magic-mask decode kernels special-case.
  for (int d : {4, 5}) {
    const Universe u = Universe::pow2(d, 2);
    const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
    expect_exact_covers_randomized(*h, 19 + static_cast<std::uint64_t>(d), 8);
  }
}

TEST(RangeCover, DeepUniverseAgreement) {
  // Depth-10 descent (1024^2 universe): the state composition must stay
  // exact through many levels, not just the depths the exhaustive subtree
  // tests reach.
  const Universe u = Universe::pow2(2, 10);
  Xoshiro256 rng(23);
  for (CurveFamily family :
       {CurveFamily::kHilbert, CurveFamily::kZ, CurveFamily::kGray}) {
    const CurvePtr curve = make_curve(family, u);
    for (int i = 0; i < 3; ++i) {
      const Box box = random_box(u, 64, rng);
      EXPECT_EQ(RangeCoverEngine(*curve).cover(box),
                cover_by_enumeration(*curve, box))
          << family_name(family);
    }
  }
}

TEST(RangeCover, DescentIsOutputSensitive) {
  // A thin full-width slab in a large universe: the run count is O(extent)
  // and the descent must visit O(runs · log side) nodes, far below the
  // box volume.
  const Universe u = Universe::pow2(2, 10);  // 1024 x 1024
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  const Box slab(Point{0, 17}, Point{1023, 20});  // 4096 cells
  CoverStats stats;
  const auto cover = RangeCoverEngine(*h).cover(slab, &stats);
  EXPECT_TRUE(stats.used_subtree);
  EXPECT_GE(cover.size(), 1u);
  // Nodes visited must scale with the cover size, not the volume.
  EXPECT_LT(stats.nodes_visited, 64u * cover.size() + 64u);
  EXPECT_EQ(cover, cover_by_enumeration(*h, slab));
}

TEST(RangeCover, OutOfUniverseBoxThrowsTypedError) {
  const auto curve = make_curve(CurveFamily::kHilbert, Universe::pow2(2, 4));
  RangeCoverEngine engine(*curve);
  // Box corner outside the 16-cell side: a typed, recoverable error naming
  // the offending coordinate — never an abort.
  try {
    engine.cover(Box(Point{3, 3}, Point{5, 99}));
    FAIL() << "expected RangeArgumentError";
  } catch (const RangeArgumentError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("99"), std::string::npos) << what;
    EXPECT_NE(what.find("16"), std::string::npos) << what;
  }
  // Dimension mismatch is typed too.
  EXPECT_THROW(engine.cover(Box(Point{1, 1, 1}, Point{2, 2, 2})),
               RangeArgumentError);
  // RangeArgumentError is part of the unified sfc::Error hierarchy.
  EXPECT_THROW(engine.cover(Box(Point{0, 20}, Point{1, 21})), Error);
  // A valid box still answers after the failures (engine state intact).
  EXPECT_GE(engine.cover(Box(Point{0, 0}, Point{3, 3})).size(), 1u);

  // Every public cover and run-count path refuses a box that leaves the
  // universe, for every family — including curves without subtree structure,
  // whose cover falls back to enumeration.
  for (const std::string& family : descriptor_family_names()) {
    CurveDescriptor descriptor;
    descriptor.family = family;
    descriptor.side = family == "peano" ? 9 : 16;
    const CurvePtr c = make_curve(descriptor);
    const Box outside(Point{14, 14}, Point{17, 17});
    EXPECT_THROW((void)count_key_runs(*c, outside), RangeArgumentError)
        << family;
    EXPECT_THROW((void)count_key_runs_enumeration(*c, outside),
                 RangeArgumentError)
        << family;
    EXPECT_THROW((void)cover_by_enumeration(*c, outside), RangeArgumentError)
        << family;
    EXPECT_THROW((void)cover_by_enumeration(*c, Box(Point{1}, Point{2})),
                 RangeArgumentError)
        << family;
  }
}

}  // namespace
}  // namespace sfc
