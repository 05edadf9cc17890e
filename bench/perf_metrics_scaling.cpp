// Microbenchmarks: the slab-streamed neighbor-metrics engine (sfc/metrics)
// against the scalar per-cell sweep it replaced, plus thread scaling and the
// slab edge-cut path.
//
// CI gate (tools/check_bench_speedup.py): the slab engine must be >= 3x the
// scalar fallback on the 1M-cell Hilbert universe.  The scalar fallback is
// the sweep in sfc_oracles: every neighbor key is a fresh virtual index_of
// call, 2d+1 encodes per cell.  The slab engine batch-encodes each cell once
// into O(slab) buffers instead.
//
// SFC_SCALE=large (the nightly job) additionally runs the 64M+-cell
// configurations (k = 13, 8192^2 cells).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sfc/apps/partition.h"
#include "sfc/core/nn_stretch.h"
#include "sfc/core/stretch_distribution.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc_oracles/scalar_nn_stretch.h"

namespace {

using namespace sfc;

/// Universe sizes: the 1M-cell smoke/gate size always, the 64M+-cell stress
/// size only at SFC_SCALE=large (nightly).
void ScaleArgs(benchmark::internal::Benchmark* b) {
  b->Arg(10);  // 1024^2 = 1,048,576 cells
  if (sfc::bench::scale_from_env() == sfc::bench::Scale::kLarge) {
    b->Arg(13);  // 8192^2 = 67,108,864 cells
  }
}

void BM_NNStretchScalarFallback(benchmark::State& state, CurveFamily family) {
  const Universe u = Universe::pow2(2, static_cast<int>(state.range(0)));
  const CurvePtr curve = make_curve(family, u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracles::scalar_nn_stretch(*curve));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(u.cell_count()));
}

void BM_NNStretchSlabEngine(benchmark::State& state, CurveFamily family) {
  const Universe u = Universe::pow2(2, static_cast<int>(state.range(0)));
  const CurvePtr curve = make_curve(family, u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_nn_stretch(*curve));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(u.cell_count()));
}

void BM_NNStretchThreadScaling(benchmark::State& state) {
  const Universe u = Universe::pow2(2, 10);
  const CurvePtr z = make_curve(CurveFamily::kZ, u);
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  NNStretchOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_nn_stretch(*z, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(u.cell_count()));
}

void BM_PartitionEdgeCutSlab(benchmark::State& state) {
  const Universe u = Universe::pow2(2, static_cast<int>(state.range(0)));
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  PartitionOptions options;
  options.count_fragments = false;  // O(slab) edge-cut-only mode
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_partition(*h, 64, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(u.cell_count()));
}

void BM_StretchDistributionSlab(benchmark::State& state) {
  const Universe u = Universe::pow2(2, static_cast<int>(state.range(0)));
  const CurvePtr h = make_curve(CurveFamily::kHilbert, u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_stretch_distribution(*h));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(u.cell_count()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_NNStretchScalarFallback, hilbert, CurveFamily::kHilbert)
    ->Apply(ScaleArgs)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_NNStretchSlabEngine, hilbert, CurveFamily::kHilbert)
    ->Apply(ScaleArgs)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_NNStretchScalarFallback, z, CurveFamily::kZ)
    ->Arg(10)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_NNStretchSlabEngine, z, CurveFamily::kZ)
    ->Arg(10)
    ->UseRealTime();
BENCHMARK(BM_NNStretchThreadScaling)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(BM_PartitionEdgeCutSlab)->Arg(10)->UseRealTime();
BENCHMARK(BM_StretchDistributionSlab)->Arg(9)->UseRealTime();

BENCHMARK_MAIN();
