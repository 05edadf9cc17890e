// Bit-identity of the two-phase diff-then-reduce neighbor-stats kernel
// against the fused scalar reference in sfc_oracles, over every factory family ×
// pool sizes 1/2/8 × two slab grains.  Every accumulator is an exact
// integer, so "bit-identical" means element-wise equal vectors and equal
// u128 Λ_i — no tolerance anywhere.  A long-run case crosses the kernel's
// internal diff-tile boundary several times, so partial tiles and full tiles
// both get covered.
#include "sfc/metrics/neighbor_stats.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sfc/core/nn_stretch.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/metrics/slab_walker.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc_oracles/neighbor_stats_reference.h"

namespace sfc {
namespace {

using oracles::accumulate_lambda_reference;
using oracles::accumulate_neighbor_stats_reference;

// Runs both stats kernels and both Λ-only kernels on every slab of the
// universe and requires exact equality of every field, with all four Λ
// sources agreeing.  gtest assertions are thread-safe on pthread platforms,
// so checking inside the pool callback is fine.
void check_bit_identity(const SpaceFillingCurve& curve, ThreadPool& pool,
                        std::uint64_t grain) {
  const Universe& u = curve.universe();
  for_each_key_slab(curve, pool, grain, [&](const KeySlab& slab) {
    SlabNeighborStats fast;
    SlabNeighborStats reference;
    accumulate_neighbor_stats(u, slab, fast);
    accumulate_neighbor_stats_reference(u, slab, reference);
    ASSERT_EQ(fast.distance_sum, reference.distance_sum)
        << curve.name() << " slab [" << slab.begin << ", " << slab.end << ")";
    ASSERT_EQ(fast.distance_max, reference.distance_max) << curve.name();
    ASSERT_EQ(fast.distance_min, reference.distance_min) << curve.name();
    ASSERT_EQ(fast.degree, reference.degree) << curve.name();
    std::array<u128, kMaxDim> lambda_fast{};
    std::array<u128, kMaxDim> lambda_reference{};
    accumulate_lambda(u, slab, lambda_fast);
    accumulate_lambda_reference(u, slab, lambda_reference);
    for (std::size_t i = 0; i < fast.lambda.size(); ++i) {
      ASSERT_TRUE(fast.lambda[i] == reference.lambda[i])
          << curve.name() << " lambda " << i;
      ASSERT_TRUE(lambda_fast[i] == reference.lambda[i])
          << curve.name() << " lambda-only kernel " << i;
      ASSERT_TRUE(lambda_reference[i] == reference.lambda[i])
          << curve.name() << " lambda-only reference " << i;
    }
  });
}

TEST(LambdaKernel, BitIdenticalEveryFamilyThreadsAndGrains2D) {
  const Universe u = Universe::pow2(2, 5);  // 1024 cells
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 17);
    for (unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      check_bit_identity(*curve, pool, /*grain=*/32);
      check_bit_identity(*curve, pool, /*grain=*/std::uint64_t{1} << 16);
    }
  }
}

TEST(LambdaKernel, BitIdenticalEveryFamily3D) {
  const Universe u = Universe::pow2(3, 3);  // 512 cells, halo 64
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 19);
    ThreadPool pool(2);
    check_bit_identity(*curve, pool, /*grain=*/64);
  }
}

TEST(LambdaKernel, BitIdenticalAcrossTileBoundaries1D) {
  // d=1, 2^14 cells: the single forward run spans 16383 neighbors — four
  // full diff tiles plus a partial one — all inside one slab.
  const Universe u = Universe::pow2(1, 14);
  const CurvePtr curve = make_curve(CurveFamily::kHilbert, u);
  ThreadPool pool(1);
  check_bit_identity(*curve, pool, /*grain=*/std::uint64_t{1} << 16);
}

TEST(LambdaKernel, BitIdenticalAcrossTileBoundaries2D) {
  // Side 128: the stride-128 dimension walks runs of ~2^14 - 2^7 neighbors,
  // crossing several tile boundaries, while the stride-1 dimension stays on
  // short (127-long) runs — both extremes in one universe.
  const Universe u = Universe::pow2(2, 7);  // 16384 cells
  for (CurveFamily family : {CurveFamily::kZ, CurveFamily::kHilbert}) {
    const CurvePtr curve = make_curve(family, u, 29);
    ThreadPool pool(2);
    check_bit_identity(*curve, pool, /*grain=*/std::uint64_t{1} << 16);
  }
}

TEST(LambdaKernel, ComputeLambdaMatchesNNStretchEveryFamily) {
  // The public Λ-only entry point must reproduce NNStretchResult::lambda
  // exactly, for any pool size and grain.
  const Universe u = Universe::pow2(2, 6);  // 4096 cells
  for (CurveFamily family : all_curve_families()) {
    const CurvePtr curve = make_curve(family, u, 23);
    const NNStretchResult full = compute_nn_stretch(*curve);
    for (unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      for (std::uint64_t grain : {std::uint64_t{128}, std::uint64_t{1} << 16}) {
        NNStretchOptions options;
        options.pool = &pool;
        options.grain = grain;
        const std::array<u128, kMaxDim> lambda =
            compute_lambda(*curve, options);
        for (int i = 0; i < u.dim(); ++i) {
          ASSERT_TRUE(lambda[static_cast<std::size_t>(i)] ==
                      full.lambda[static_cast<std::size_t>(i)])
              << family_name(family) << " threads=" << threads
              << " grain=" << grain << " dim " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sfc
