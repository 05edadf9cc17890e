// Bit-identity of the direct descent kernels (Peano ternary-parity descent,
// PermutedZ bit-pick descent) against the generic batched-decoder path they
// replaced — exposed via GenericDescentCurve — plus determinism of the
// parallel single-box cover: pool size must never change a single interval,
// up to a 2^40-cell box.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sfc/common/math.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/curves/peano_curve.h"
#include "sfc/curves/zcurve.h"
#include "sfc/grid/box.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/rng/xoshiro256.h"
#include "sfc_oracles/generic_descent.h"

namespace sfc {
namespace {

using oracles::GenericDescentCurve;

Box random_box(const Universe& u, Xoshiro256& rng) {
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

/// Walks the whole subtree: at every node, the direct kernel's children must
/// equal the generic decode-based children in geometry and key layout.
/// (States may differ — the generic path carries none — so recursion follows
/// the direct children, which hold the kernel's own state.)
void check_children_recursive(const SpaceFillingCurve& direct,
                              const GenericDescentCurve& generic,
                              const SubtreeNode& node) {
  if (node.side == 1) return;
  const index_t arity = ipow(direct.subtree_radix(), direct.universe().dim());
  std::vector<SubtreeNode> fast(arity);
  std::vector<SubtreeNode> reference(arity);
  direct.subtree_children(node, fast);
  generic.subtree_children(node, reference);
  for (index_t j = 0; j < arity; ++j) {
    const std::string label = direct.name() + " node " +
                              node.origin.to_string() + " side " +
                              std::to_string(node.side) + " child " +
                              std::to_string(j);
    for (int i = 0; i < direct.universe().dim(); ++i) {
      ASSERT_EQ(fast[j].origin[i], reference[j].origin[i]) << label;
    }
    ASSERT_EQ(fast[j].side, reference[j].side) << label;
    ASSERT_EQ(fast[j].key_lo, reference[j].key_lo) << label;
    ASSERT_EQ(fast[j].key_count, reference[j].key_count) << label;
    check_children_recursive(direct, generic, fast[j]);
  }
}

/// Covers through the direct kernel, through the generic-descent wrapper,
/// and by enumeration must all be the same interval list.
void check_covers(const SpaceFillingCurve& direct, std::uint64_t seed,
                  int boxes) {
  const GenericDescentCurve generic(direct);
  const RangeCoverEngine fast_engine(direct);
  const RangeCoverEngine reference_engine(generic);
  Xoshiro256 rng(seed);
  for (int i = 0; i < boxes; ++i) {
    const Box box = random_box(direct.universe(), rng);
    const std::string label = direct.name() + " box " + box.lo().to_string() +
                              ".." + box.hi().to_string();
    const std::vector<KeyInterval> fast = fast_engine.cover(box);
    const std::vector<KeyInterval> reference = reference_engine.cover(box);
    ASSERT_EQ(fast, reference) << label;
    ASSERT_EQ(fast, cover_by_enumeration(direct, box)) << label;
  }
}

TEST(PeanoDescentKernel, ChildrenMatchGenericDescentWholeTree) {
  for (const Universe& u : {Universe(1, 27), Universe(2, 9), Universe(3, 9)}) {
    const PeanoCurve curve(u);
    const GenericDescentCurve generic(curve);
    check_children_recursive(curve, generic, curve.subtree_root());
  }
}

TEST(PeanoDescentKernel, CoversMatchGenericDescentAndEnumeration) {
  check_covers(PeanoCurve(Universe(1, 81)), 11, 12);
  check_covers(PeanoCurve(Universe(2, 27)), 13, 12);
  check_covers(PeanoCurve(Universe(3, 9)), 17, 12);
}

TEST(PermutedZDescentKernel, ChildrenMatchGenericDescentWholeTree) {
  {
    const Universe u = Universe::pow2(2, 3);
    for (const std::vector<int>& order :
         {std::vector<int>{0, 1}, std::vector<int>{1, 0}}) {
      const PermutedZCurve curve(u, order);
      const GenericDescentCurve generic(curve);
      check_children_recursive(curve, generic, curve.subtree_root());
    }
  }
  {
    const Universe u = Universe::pow2(3, 2);
    for (const std::vector<int>& order :
         {std::vector<int>{2, 0, 1}, std::vector<int>{1, 2, 0},
          std::vector<int>{0, 1, 2}}) {
      const PermutedZCurve curve(u, order);
      const GenericDescentCurve generic(curve);
      check_children_recursive(curve, generic, curve.subtree_root());
    }
  }
}

TEST(PermutedZDescentKernel, CoversMatchGenericDescentAndEnumeration) {
  check_covers(PermutedZCurve(Universe::pow2(2, 5), {1, 0}), 19, 12);
  check_covers(PermutedZCurve(Universe::pow2(3, 3), {2, 0, 1}), 23, 12);
}

TEST(PermutedZDescentKernel, IdentityOrderMatchesZCurveCovers) {
  const Universe u = Universe::pow2(2, 5);
  const PermutedZCurve permuted(u, {0, 1});
  const ZCurve z(u);
  const RangeCoverEngine permuted_engine(permuted);
  const RangeCoverEngine z_engine(z);
  Xoshiro256 rng(29);
  for (int i = 0; i < 12; ++i) {
    const Box box = random_box(u, rng);
    ASSERT_EQ(permuted_engine.cover(box), z_engine.cover(box));
  }
}

TEST(ParallelCover, SameIntervalsAcrossPoolSizesEveryHierarchicalFamily) {
  const Universe u = Universe::pow2(2, 9);  // side 512
  Xoshiro256 rng(31);
  for (CurveFamily family :
       {CurveFamily::kZ, CurveFamily::kGray, CurveFamily::kHilbert}) {
    const CurvePtr curve = make_curve(family, u);
    const RangeCoverEngine serial(*curve);
    // Big boxes so the frontier crosses the parallel threshold.
    for (int i = 0; i < 4; ++i) {
      Box box = random_box(u, rng);
      const std::vector<KeyInterval> expected = serial.cover(box);
      for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        const RangeCoverEngine parallel(*curve, &pool);
        CoverStats stats;
        const std::vector<KeyInterval> cover = parallel.cover(box, &stats);
        ASSERT_EQ(cover, expected)
            << family_name(family) << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelCover, HugeBox2Pow40CellsMatchesSerial) {
  // A single 2^40-cell box (extent 2^20 per dimension) in a 2^42-cell
  // universe, at odd offsets so no box face aligns to any subcube grid and
  // the descent runs all the way to single-cell nodes (~16.8M nodes, ~1.5M
  // intervals).  The frontier grows to millions of nodes, so every level
  // runs through the parallel chunked path; the cover must match the serial
  // engine interval for interval, and its total size must be the box volume.
  const Universe u = Universe::pow2(2, 21);
  const CurvePtr curve = make_curve(CurveFamily::kHilbert, u);
  const coord_t extent = coord_t{1} << 20;
  const Box box(Point{1001, 2003},
                Point{1001 + extent - 1, 2003 + extent - 1});
  const RangeCoverEngine serial(*curve);
  CoverStats serial_stats;
  const std::vector<KeyInterval> expected = serial.cover(box, &serial_stats);
  index_t covered = 0;
  for (const KeyInterval& interval : expected) {
    covered += interval.hi - interval.lo + 1;
  }
  EXPECT_EQ(covered, box.cell_count());
  ThreadPool pool(8);
  const RangeCoverEngine parallel(*curve, &pool);
  CoverStats parallel_stats;
  const std::vector<KeyInterval> cover = parallel.cover(box, &parallel_stats);
  ASSERT_EQ(cover.size(), expected.size());
  ASSERT_EQ(cover, expected);
  EXPECT_EQ(parallel_stats.nodes_visited, serial_stats.nodes_visited);
}

}  // namespace
}  // namespace sfc
