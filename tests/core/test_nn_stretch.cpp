#include "sfc/core/nn_stretch.h"

#include <gtest/gtest.h>

#include "sfc/curves/curve_factory.h"
#include "sfc/curves/simple_curve.h"
#include "sfc/curves/toy_curves.h"
#include "sfc/curves/zcurve.h"

namespace sfc {
namespace {

// Brute-force reference implementation straight from Definitions 1-4.
NNStretchResult brute_force(const SpaceFillingCurve& curve) {
  const Universe& u = curve.universe();
  NNStretchResult result;
  result.n = u.cell_count();
  result.dim = u.dim();
  result.nn_pair_count = u.nn_pair_count();
  long double avg_sum = 0, max_sum = 0, min_sum = 0;
  for (index_t id = 0; id < u.cell_count(); ++id) {
    const Point alpha = u.from_row_major(id);
    long double sum = 0;
    index_t dmax = 0;
    index_t dmin = ~index_t{0};
    int degree = 0;
    u.for_each_neighbor(alpha, [&](const Point& beta) {
      const index_t dist = curve.curve_distance(alpha, beta);
      sum += static_cast<long double>(dist);
      dmax = std::max(dmax, dist);
      dmin = std::min(dmin, dist);
      ++degree;
    });
    u.for_each_forward_neighbor(alpha, [&](const Point& beta, int dim) {
      result.lambda[static_cast<std::size_t>(dim)] += curve.curve_distance(alpha, beta);
    });
    if (degree > 0) {
      avg_sum += sum / degree;
      max_sum += static_cast<long double>(dmax);
      min_sum += static_cast<long double>(dmin);
    }
  }
  for (int i = 0; i < u.dim(); ++i) {
    result.nn_distance_total += result.lambda[static_cast<std::size_t>(i)];
  }
  result.average_average = static_cast<double>(avg_sum / static_cast<long double>(result.n));
  result.average_maximum = static_cast<double>(max_sum / static_cast<long double>(result.n));
  result.average_minimum = static_cast<double>(min_sum / static_cast<long double>(result.n));
  return result;
}

TEST(NNStretch, MatchesBruteForceForEveryFamily) {
  const Universe u = Universe::pow2(2, 3);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 11);
    const NNStretchResult fast = compute_nn_stretch(*curve);
    const NNStretchResult slow = brute_force(*curve);
    EXPECT_DOUBLE_EQ(fast.average_average, slow.average_average) << family_name(family);
    EXPECT_DOUBLE_EQ(fast.average_maximum, slow.average_maximum) << family_name(family);
    EXPECT_DOUBLE_EQ(fast.average_minimum, slow.average_minimum) << family_name(family);
    for (int i = 0; i < u.dim(); ++i) {
      EXPECT_TRUE(fast.lambda[static_cast<std::size_t>(i)] ==
                  slow.lambda[static_cast<std::size_t>(i)])
          << family_name(family) << " lambda " << i;
    }
  }
}

TEST(NNStretch, MatchesBruteForceIn3D) {
  const Universe u = Universe::pow2(3, 2);
  const CurvePtr curve = make_curve(CurveFamily::kHilbert, u);
  const NNStretchResult fast = compute_nn_stretch(*curve);
  const NNStretchResult slow = brute_force(*curve);
  EXPECT_DOUBLE_EQ(fast.average_average, slow.average_average);
  EXPECT_DOUBLE_EQ(fast.average_maximum, slow.average_maximum);
}

TEST(NNStretch, Figure1WorkedValues) {
  const NNStretchResult r1 = compute_nn_stretch(*make_figure1_pi1());
  EXPECT_DOUBLE_EQ(r1.average_average, 1.5);
  EXPECT_DOUBLE_EQ(r1.average_maximum, 2.0);
  const NNStretchResult r2 = compute_nn_stretch(*make_figure1_pi2());
  EXPECT_DOUBLE_EQ(r2.average_average, 2.0);
  EXPECT_DOUBLE_EQ(r2.average_maximum, 2.5);
}

TEST(NNStretch, DeterministicAcrossGrainAndThreads) {
  const Universe u = Universe::pow2(2, 5);
  const ZCurve z(u);
  ThreadPool one(1), four(4);

  NNStretchOptions opt_a;
  opt_a.pool = &one;
  opt_a.grain = 64;
  NNStretchOptions opt_b;
  opt_b.pool = &four;
  opt_b.grain = 64;
  const NNStretchResult a = compute_nn_stretch(z, opt_a);
  const NNStretchResult b = compute_nn_stretch(z, opt_b);
  // Same grain, different thread counts: bit-identical.
  EXPECT_EQ(a.average_average, b.average_average);
  EXPECT_EQ(a.average_maximum, b.average_maximum);
}

TEST(NNStretch, Lemma3SandwichHoldsForEveryFamily) {
  // (1/nd) Σ_NN ∆π <= Davg <= (2/nd) Σ_NN ∆π.
  const Universe u = Universe::pow2(2, 3);
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 23);
    const NNStretchResult r = compute_nn_stretch(*curve);
    EXPECT_LE(r.lemma3_lower, r.average_average * (1 + 1e-12)) << family_name(family);
    EXPECT_GE(r.lemma3_upper, r.average_average * (1 - 1e-12)) << family_name(family);
  }
}

TEST(NNStretch, OneDimensionalIdentityCurve) {
  // In 1-d the simple curve is the identity: every NN pair is at curve
  // distance 1, so Davg = Dmax = 1.
  const Universe u(1, 64);
  const SimpleCurve s(u);
  const NNStretchResult r = compute_nn_stretch(s);
  EXPECT_DOUBLE_EQ(r.average_average, 1.0);
  EXPECT_DOUBLE_EQ(r.average_maximum, 1.0);
  EXPECT_DOUBLE_EQ(r.average_minimum, 1.0);
  EXPECT_TRUE(equals_u64(r.nn_distance_total, 63));
}

TEST(NNStretch, SimpleCurve2x2ByHand) {
  // 2x2 simple curve keys: (0,0)=0 (1,0)=1 (0,1)=2 (1,1)=3.
  // δavg(0,0) = (|0-1| + |0-2|)/2 = 1.5; same for all cells by symmetry.
  const Universe u(2, 2);
  const SimpleCurve s(u);
  const NNStretchResult r = compute_nn_stretch(s);
  EXPECT_DOUBLE_EQ(r.average_average, 1.5);
  EXPECT_DOUBLE_EQ(r.average_maximum, 2.0);
  EXPECT_DOUBLE_EQ(r.average_minimum, 1.0);
  // Λ_1 = two horizontal pairs at distance 1 each = 2; Λ_2 = two vertical
  // pairs at distance 2 each = 4.
  EXPECT_TRUE(equals_u64(r.lambda[0], 2));
  EXPECT_TRUE(equals_u64(r.lambda[1], 4));
}

TEST(NNStretch, MinAndMaxCellStretchBracketsAverage) {
  const Universe u = Universe::pow2(2, 4);
  for (CurveFamily family : analytic_curve_families()) {
    const CurvePtr curve = make_curve(family, u);
    const NNStretchResult r = compute_nn_stretch(*curve);
    EXPECT_LE(r.min_cell_stretch, r.average_average) << family_name(family);
    EXPECT_GE(r.max_cell_stretch, r.average_average) << family_name(family);
  }
}

TEST(NNStretch, SingleCellUniverse) {
  const Universe u(2, 1);
  const SimpleCurve s(u);
  const NNStretchResult r = compute_nn_stretch(s);
  EXPECT_DOUBLE_EQ(r.average_average, 0.0);
  EXPECT_EQ(r.nn_pair_count, 0u);
}

TEST(CellStretch, SingleCellHelpersMatchEngine) {
  const Universe u = Universe::pow2(2, 3);
  const ZCurve z(u);
  // Engine averages the per-cell values; cross-check a few cells directly.
  long double avg = 0;
  for (index_t id = 0; id < u.cell_count(); ++id) {
    avg += static_cast<long double>(
        cell_average_stretch(z, u.from_row_major(id)));
  }
  const NNStretchResult r = compute_nn_stretch(z);
  EXPECT_NEAR(static_cast<double>(avg / static_cast<long double>(u.cell_count())),
              r.average_average, 1e-12);
}

}  // namespace
}  // namespace sfc
