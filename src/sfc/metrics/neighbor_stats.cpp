#include "sfc/metrics/neighbor_stats.h"

#include <algorithm>
#include <limits>

namespace sfc {

// The tile loops below are exact integer code, so the compiler may retarget
// them to any vector width without changing a single output bit.  On
// x86-64 Linux we ask for a runtime-dispatched AVX2 clone next to the
// baseline build (the default target is plain SSE2, which has no usable
// unsigned-64-bit lanes); the ifunc resolver picks the widest supported
// variant at load time, so one binary serves every machine.
#if defined(__x86_64__) && defined(__linux__) && defined(__clang__)
#define SFC_VEC_CLONES __attribute__((target_clones("default", "avx2")))
#elif defined(__x86_64__) && defined(__linux__) && defined(__GNUC__)
// GCC also accepts micro-architecture levels; x86-64-v4 brings native
// unsigned 64-bit min/max (vpminuq/vpmaxuq) and 512-bit lanes.
#define SFC_VEC_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define SFC_VEC_CLONES
#endif

namespace {

/// Tile length of the two-phase kernel's diff buffer: 4096 u64 diffs = 32 KiB,
/// L1-resident, so the per-statistic passes re-read it for free.
constexpr std::size_t kDiffTile = 4096;

/// Cell-tile length of the outer blocking loop: all 2d directional passes
/// run over one tile of cells before the kernel moves on, so the tile's
/// statistic arrays (25 B/cell -> 200 KiB) stay L2-resident across passes
/// instead of streaming from shared cache 2d times.  This is where the bulk
/// of the kernel's speedup comes from: the pass is bandwidth-bound, and
/// blocking cuts the statistic-array traffic by ~2d.
constexpr index_t kCellTile = 8192;

/// Phase-1 diff pass: absolute key differences of two parallel streams into
/// the tile.  Branch-free (max - min), one type, trivially lane-parallel.
SFC_VEC_CLONES
void compute_diff_tile(const index_t* lo, const index_t* hi, std::size_t count,
                       std::uint64_t* diff) {
  for (std::size_t j = 0; j < count; ++j) {
    const index_t a = lo[j];
    const index_t b = hi[j];
    diff[j] = std::max(a, b) - std::min(a, b);
  }
}

/// Widening reduction of one tile of diffs into a u128 total.  Each diff is
/// split into its low and high 32-bit halves; both partial sums stay far below
/// 2^64 for any tile length <= 2^32, so the two accumulations are plain u64
/// adds (no carry chain, vectorizable) and the recombination
/// (hi << 32) + lo is exact.  Integer addition is associative, so the result
/// is identical to per-element u128 accumulation in any order.
SFC_VEC_CLONES
u128 reduce_tile_widening(const std::uint64_t* diff, std::size_t count) {
  std::uint64_t lo_sum = 0;
  std::uint64_t hi_sum = 0;
  for (std::size_t j = 0; j < count; ++j) {
    lo_sum += diff[j] & 0xffffffffu;
    hi_sum += diff[j] >> 32;
  }
  return (static_cast<u128>(hi_sum) << 32) + lo_sum;
}

/// Phase-2 update loops: fold one tile of diffs into the per-cell statistic
/// arrays at `offset`.  One single-type loop per statistic so each
/// auto-vectorizes independently.
SFC_VEC_CLONES
void update_cell_stats(const std::uint64_t* diff, std::size_t count,
                       std::size_t offset, std::uint64_t* sum, index_t* dmax,
                       index_t* dmin, std::uint8_t* degree) {
  for (std::size_t j = 0; j < count; ++j) sum[offset + j] += diff[j];
  for (std::size_t j = 0; j < count; ++j) {
    dmax[offset + j] = std::max<index_t>(dmax[offset + j], diff[j]);
  }
  for (std::size_t j = 0; j < count; ++j) {
    dmin[offset + j] = std::min<index_t>(dmin[offset + j], diff[j]);
  }
  for (std::size_t j = 0; j < count; ++j) {
    degree[offset + j] = static_cast<std::uint8_t>(degree[offset + j] + 1);
  }
}

void reset_stats(const KeySlab& slab, SlabNeighborStats& stats) {
  const std::size_t len = slab.end - slab.begin;
  stats.distance_sum.assign(len, 0);
  stats.distance_max.assign(len, 0);
  stats.distance_min.assign(len, std::numeric_limits<index_t>::max());
  stats.degree.assign(len, 0);
  stats.lambda.fill(0);
}

}  // namespace

void accumulate_neighbor_stats(const Universe& u, const KeySlab& slab,
                               SlabNeighborStats& stats) {
  reset_stats(slab, stats);

  std::uint64_t* const sum = stats.distance_sum.data();
  index_t* const dmax = stats.distance_max.data();
  index_t* const dmin = stats.distance_min.data();
  std::uint8_t* const degree = stats.degree.data();
  std::uint64_t diff[kDiffTile];

  // Outer blocking over cells, all 2d directional passes per tile.  Every
  // per-cell update is an exact commutative integer op (+, max, min, ++) and
  // the Λ partials combine by exact addition, so this order produces outputs
  // bit-identical to a dimension-major scalar loop.
  for (index_t tile_begin = slab.begin; tile_begin < slab.end;
       tile_begin += kCellTile) {
    const index_t tile_end = std::min(slab.end, tile_begin + kCellTile);
    for (int i = 0; i < u.dim(); ++i) {
      const index_t stride = dim_stride(u, i);
      u128 lambda_i = 0;
      for_each_forward_run(
          u, tile_begin, tile_end, i,
          [&](index_t run_begin, index_t run_end) {
            const index_t* const lo =
                slab.keys + (run_begin - slab.buffer_begin);
            const index_t* const hi = lo + stride;
            const std::size_t offset = run_begin - slab.begin;
            const std::size_t count = run_end - run_begin;
            for (std::size_t at = 0; at < count; at += kDiffTile) {
              const std::size_t tile = std::min(kDiffTile, count - at);
              compute_diff_tile(lo + at, hi + at, tile, diff);
              update_cell_stats(diff, tile, offset + at, sum, dmax, dmin,
                                degree);
              lambda_i += reduce_tile_widening(diff, tile);
            }
          });
      stats.lambda[static_cast<std::size_t>(i)] += lambda_i;

      for_each_backward_run(
          u, tile_begin, tile_end, i,
          [&](index_t run_begin, index_t run_end) {
            const index_t* const mid =
                slab.keys + (run_begin - slab.buffer_begin);
            const index_t* const lo = mid - stride;
            const std::size_t offset = run_begin - slab.begin;
            const std::size_t count = run_end - run_begin;
            for (std::size_t at = 0; at < count; at += kDiffTile) {
              const std::size_t tile = std::min(kDiffTile, count - at);
              compute_diff_tile(mid + at, lo + at, tile, diff);
              update_cell_stats(diff, tile, offset + at, sum, dmax, dmin,
                                degree);
            }
          });
    }
  }
}

void accumulate_lambda(const Universe& u, const KeySlab& slab,
                       std::array<u128, kMaxDim>& lambda) {
  std::uint64_t diff[kDiffTile];

  // Dimension loop inside the cell-tile loop: all d forward passes over one
  // tile of keys run back-to-back while the tile is cache-resident, so the
  // key table streams from memory once instead of once per dimension.
  for (index_t tile_begin = slab.begin; tile_begin < slab.end;
       tile_begin += kCellTile) {
    const index_t tile_end = std::min(slab.end, tile_begin + kCellTile);
    for (int i = 0; i < u.dim(); ++i) {
      const index_t stride = dim_stride(u, i);
      u128 lambda_i = 0;
      for_each_forward_run(
          u, tile_begin, tile_end, i,
          [&](index_t run_begin, index_t run_end) {
            const index_t* const lo =
                slab.keys + (run_begin - slab.buffer_begin);
            const index_t* const hi = lo + stride;
            const std::size_t count = run_end - run_begin;
            for (std::size_t at = 0; at < count; at += kDiffTile) {
              const std::size_t tile = std::min(kDiffTile, count - at);
              compute_diff_tile(lo + at, hi + at, tile, diff);
              lambda_i += reduce_tile_widening(diff, tile);
            }
          });
      lambda[static_cast<std::size_t>(i)] += lambda_i;
    }
  }
}

}  // namespace sfc
