// Paired old-vs-new microbenchmarks for the three rewritten inner-loop
// kernels, each gated in CI by tools/check_bench_speedup.py on the
// items_per_second ratio (see .github/workflows/ci.yml, BENCH_kernels.json):
//
//  - Λ slab pass: the seed produced Λ only as a rider on the full fused
//    neighbor-stats pass (per-neighbor u128 accumulation buried in the
//    per-cell statistic loop — what repro_lemma5_lambda paid for), so the
//    gated pair is that pass vs the dedicated cell-tiled two-phase Λ kernel,
//    >= 2x at 1M cells.  BM_LambdaScalarRuns charts the intermediate step
//    (scalar Λ-only runs) so the JSON separates the two sources of the win:
//    dropping the per-cell statistics, and vectorizing the diff+reduction;
//  - u128 radix sort: MSD/LSD hybrid vs the retained 16-pass LSD engine,
//    >= 1.5x at 1M keys;
//  - Peano and PermutedZ box covers: direct descent kernels vs the generic
//    batched-decoder descent (via GenericDescentCurve), >= 3x at extent-1024
//    boxes.
//
// Every pair processes identical inputs, and each new path is bit-identical
// to its baseline (tests/metrics/test_lambda_kernel.cpp,
// tests/sort/test_hybrid_radix.cpp, tests/ranges/test_descent_kernels.cpp),
// so the ratios measure pure speed, never changed answers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/curves/peano_curve.h"
#include "sfc/curves/zcurve.h"
#include "sfc/grid/box.h"
#include "sfc/metrics/neighbor_stats.h"
#include "sfc/metrics/slab_walker.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/rng/sampling.h"
#include "sfc/rng/xoshiro256.h"
#include "sfc/sort/radix_sort.h"
#include "sfc_oracles/generic_descent.h"
#include "sfc_oracles/neighbor_stats_reference.h"

namespace {

using namespace sfc;
using oracles::accumulate_lambda_reference;
using oracles::accumulate_neighbor_stats_reference;
using oracles::GenericDescentCurve;

// ---- Λ / neighbor-stats slab pass --------------------------------------

/// One whole-universe slab over a prebuilt Hilbert key table: the bench
/// times only the statistic passes, never the encode.
struct LambdaFixture {
  Universe u;
  std::vector<index_t> table;
  KeySlab slab;

  explicit LambdaFixture(int k) : u(Universe::pow2(2, k)) {
    const CurvePtr curve = make_curve(CurveFamily::kHilbert, u);
    table.resize(u.cell_count());
    ThreadPool pool(4);
    build_key_table(*curve, pool, table);
    slab.begin = 0;
    slab.end = u.cell_count();
    slab.buffer_begin = 0;
    slab.buffer_end = u.cell_count();
    slab.keys = table.data();
  }
};

template <void (*Kernel)(const Universe&, const KeySlab&,
                         std::array<u128, kMaxDim>&)>
void BM_LambdaPass(benchmark::State& state) {
  const LambdaFixture fixture(/*k=*/10);  // 2^20 cells
  std::array<u128, kMaxDim> lambda{};
  for (auto _ : state) {
    lambda.fill(0);
    Kernel(fixture.u, fixture.slab, lambda);
    benchmark::DoNotOptimize(lambda.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.u.cell_count()));
}

/// The seed's Λ path: the full fused neighbor-stats pass (Λ was only
/// available as a by-product of the per-cell statistics sweep).
void BM_LambdaPassReference(benchmark::State& state) {
  const LambdaFixture fixture(/*k=*/10);
  SlabNeighborStats stats;
  for (auto _ : state) {
    accumulate_neighbor_stats_reference(fixture.u, fixture.slab, stats);
    benchmark::DoNotOptimize(stats.lambda.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.u.cell_count()));
}

/// Intermediate step, charted not gated: scalar Λ-only run passes (work
/// reduction without the SIMD two-phase rewrite).
void BM_LambdaScalarRuns(benchmark::State& state) {
  BM_LambdaPass<accumulate_lambda_reference>(state);
}

void BM_LambdaPassTwoPhase(benchmark::State& state) {
  BM_LambdaPass<accumulate_lambda>(state);
}

/// The full per-cell neighbor-stats kernel pair (sum/max/min/degree + Λ):
/// the two-phase rewrite is bit-identical and moderately faster, but its
/// speedup is bounded by the per-cell statistic traffic, so it is charted
/// rather than gated.
template <void (*Kernel)(const Universe&, const KeySlab&, SlabNeighborStats&)>
void BM_NeighborStatsPass(benchmark::State& state) {
  const LambdaFixture fixture(/*k=*/10);
  SlabNeighborStats stats;
  for (auto _ : state) {
    Kernel(fixture.u, fixture.slab, stats);
    benchmark::DoNotOptimize(stats.lambda.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.u.cell_count()));
}

void BM_NeighborStatsReference(benchmark::State& state) {
  BM_NeighborStatsPass<accumulate_neighbor_stats_reference>(state);
}

void BM_NeighborStatsTwoPhase(benchmark::State& state) {
  BM_NeighborStatsPass<accumulate_neighbor_stats>(state);
}

// ---- u128 radix sort ----------------------------------------------------

std::vector<u128> random_u128(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<u128> keys(count);
  for (auto& key : keys) {
    key = (static_cast<u128>(rng.next()) << 64) | rng.next();
  }
  return keys;
}

void BM_SortU128Lsd(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::vector<u128> master = random_u128(count, 27);
  std::vector<u128> keys(count);
  for (auto _ : state) {
    std::copy(master.begin(), master.end(), keys.begin());
    lsd_radix_sort_keys(keys);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}

void BM_SortU128Hybrid(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::vector<u128> master = random_u128(count, 27);
  std::vector<u128> keys(count);
  for (auto _ : state) {
    std::copy(master.begin(), master.end(), keys.begin());
    radix_sort_keys(keys);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}

// ---- Peano / PermutedZ descent ------------------------------------------

std::vector<Box> query_boxes(const Universe& u, coord_t extent, int count,
                             std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Box> boxes;
  boxes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) boxes.push_back(random_box(u, extent, rng));
  return boxes;
}

void run_cover_bench(benchmark::State& state, const SpaceFillingCurve& curve,
                     coord_t extent) {
  const RangeCoverEngine engine(curve);
  const std::vector<Box> boxes = query_boxes(curve.universe(), extent, 4, 99);
  CoverWorkspace ws;
  std::size_t at = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.cover(boxes[at], ws).data());
    at = (at + 1) % boxes.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(boxes[0].cell_count()));
}

void BM_PeanoCoverGenericDescent(benchmark::State& state) {
  const PeanoCurve curve(Universe(2, 2187));  // 3^7: ~4.8M cells
  const GenericDescentCurve generic(curve);
  run_cover_bench(state, generic, static_cast<coord_t>(state.range(0)));
}

void BM_PeanoCoverDirectKernel(benchmark::State& state) {
  const PeanoCurve curve(Universe(2, 2187));
  run_cover_bench(state, curve, static_cast<coord_t>(state.range(0)));
}

void BM_PermutedZCoverGenericDescent(benchmark::State& state) {
  // 2^40-cell universe: descent covers never materialize keys, so depth is
  // free for the direct kernel while the generic baseline pays its per-level
  // decode cost in full.
  const PermutedZCurve curve(Universe::pow2(2, 20), {1, 0});
  const GenericDescentCurve generic(curve);
  run_cover_bench(state, generic, static_cast<coord_t>(state.range(0)));
}

void BM_PermutedZCoverDirectKernel(benchmark::State& state) {
  const PermutedZCurve curve(Universe::pow2(2, 20), {1, 0});
  run_cover_bench(state, curve, static_cast<coord_t>(state.range(0)));
}

// ---- Parallel huge-box cover --------------------------------------------

/// Serial vs pooled descent on one large unaligned box (every face off any
/// subcube grid, so the frontier reaches single-cell nodes).  Not CI-gated —
/// the win depends on core count — but charted by the trajectory tooling.
void BM_CoverSingleBox(benchmark::State& state, bool parallel) {
  const Universe u = Universe::pow2(2, 14);
  const CurvePtr curve = make_curve(CurveFamily::kHilbert, u);
  const coord_t extent = 4096;
  const Box box(Point{1001, 2003},
                Point{1001 + extent - 1, 2003 + extent - 1});
  ThreadPool pool(4);
  const RangeCoverEngine engine(*curve, parallel ? &pool : nullptr);
  CoverWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.cover(box, ws).data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(box.cell_count()));
}

void BM_CoverSingleBoxSerial(benchmark::State& state) {
  BM_CoverSingleBox(state, false);
}

void BM_CoverSingleBoxParallel(benchmark::State& state) {
  BM_CoverSingleBox(state, true);
}

}  // namespace

BENCHMARK(BM_LambdaPassReference)->Arg(1 << 20);
BENCHMARK(BM_LambdaScalarRuns)->Arg(1 << 20);
BENCHMARK(BM_LambdaPassTwoPhase)->Arg(1 << 20);
BENCHMARK(BM_NeighborStatsReference)->Arg(1 << 20);
BENCHMARK(BM_NeighborStatsTwoPhase)->Arg(1 << 20);
BENCHMARK(BM_SortU128Lsd)->Arg(1 << 20);
BENCHMARK(BM_SortU128Hybrid)->Arg(1 << 20);
BENCHMARK(BM_PeanoCoverGenericDescent)->Arg(1024);
BENCHMARK(BM_PeanoCoverDirectKernel)->Arg(1024);
BENCHMARK(BM_PermutedZCoverGenericDescent)->Arg(1024);
BENCHMARK(BM_PermutedZCoverDirectKernel)->Arg(1024);
BENCHMARK(BM_CoverSingleBoxSerial)->UseRealTime();
BENCHMARK(BM_CoverSingleBoxParallel)->UseRealTime();

BENCHMARK_MAIN();
