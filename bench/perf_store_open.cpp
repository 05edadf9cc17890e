// Microbenchmarks: the persistent index store (sfc/store) — crash-safe
// writes and validated mmap opens.
//
// The write path streams to a temp file, fsyncs, and renames; the open path
// runs the full verification pass (header digest, column checksums, key
// order, directory consistency, and the key<->point re-encoding that ties
// the persisted curve identity to the data).  Serving restarts pay the open
// cost and rebuilds pay the write cost, so both are tracked: verification is
// a streaming pass and must stay linear in file size, and the unverified
// open (used when reopening a file the process just validated) must stay
// essentially free next to it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/rng/sampling.h"
#include "sfc/serve/generation.h"
#include "sfc/store/index_store.h"

namespace {

using namespace sfc;

std::string bench_path(const char* name) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
         "/sfc_bench_store_" + name + ".sfcidx";
}

/// One point per cell on average: bits k -> 4^k points in a 2^k-side 2D
/// Hilbert universe (bits 9 = 256K points, bits 10 = 1M points).
struct StoreFixture {
  CurveDescriptor descriptor;
  CurvePtr curve;
  PointIndex index;

  static StoreFixture make(int bits) {
    CurveDescriptor descriptor;
    descriptor.family = "hilbert";
    descriptor.dim = 2;
    descriptor.side = static_cast<coord_t>(1u << bits);
    CurvePtr curve = make_curve(descriptor);
    const Universe& u = curve->universe();
    Xoshiro256 rng(7);
    std::vector<Point> points;
    points.reserve(u.cell_count());
    for (index_t i = 0; i < u.cell_count(); ++i) {
      points.push_back(random_cell(u, rng));
    }
    PointIndex index = PointIndex::build(*curve, points);
    return StoreFixture{std::move(descriptor), std::move(curve),
                        std::move(index)};
  }
};

void BM_StoreWrite(benchmark::State& state) {
  const StoreFixture f = StoreFixture::make(static_cast<int>(state.range(0)));
  const std::string path = bench_path("write");
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    write_index_file(path, f.index, f.descriptor);
    bytes = MappedIndex::open(path, {.verify = false}).file_bytes();
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_StoreWrite)->Arg(9)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_StoreOpenVerified(benchmark::State& state) {
  const StoreFixture f = StoreFixture::make(static_cast<int>(state.range(0)));
  const std::string path = bench_path("open_verified");
  write_index_file(path, f.index, f.descriptor);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const MappedIndex mapped = MappedIndex::open(path, {.verify = true});
    benchmark::DoNotOptimize(mapped.row_count());
    bytes = mapped.file_bytes();
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_StoreOpenVerified)->Arg(9)->Arg(10)->Unit(benchmark::kMillisecond);

// The degraded serving open runs the same verification scan as the verified
// open and localizes its findings; on a clean file the two must cost the same.
void BM_GenerationOpenDegraded(benchmark::State& state) {
  const StoreFixture f = StoreFixture::make(static_cast<int>(state.range(0)));
  const std::string path = bench_path("open_degraded");
  write_index_file(path, f.index, f.descriptor);
  const std::uint64_t bytes =
      MappedIndex::open(path, {.verify = false}).file_bytes();
  for (auto _ : state) {
    const auto generation = IndexGeneration::open(path, 4, 0, true);
    benchmark::DoNotOptimize(generation->dead_shards().size());
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_GenerationOpenDegraded)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_StoreOpenUnverified(benchmark::State& state) {
  const StoreFixture f = StoreFixture::make(static_cast<int>(state.range(0)));
  const std::string path = bench_path("open_unverified");
  write_index_file(path, f.index, f.descriptor);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const MappedIndex mapped = MappedIndex::open(path, {.verify = false});
    benchmark::DoNotOptimize(mapped.row_count());
    bytes = mapped.file_bytes();
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_StoreOpenUnverified)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
