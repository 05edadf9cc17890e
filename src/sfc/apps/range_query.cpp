#include "sfc/apps/range_query.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sfc/common/int128.h"
#include "sfc/common/math.h"
#include "sfc/index/range_scan.h"
#include "sfc/parallel/parallel_for.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/rng/splitmix64.h"

namespace sfc {

namespace {

// random_box draws origins in [0, side - extent], so the extent must be a
// valid box side; reject it before any worker starts.
void check_extent(const Universe& u, coord_t extent) {
  if (extent < 1 || extent > u.side()) {
    throw RangeArgumentError("box extent " + std::to_string(extent) +
                             " outside [1, " + std::to_string(u.side()) + "]");
  }
}

}  // namespace

index_t count_key_runs_enumeration(const SpaceFillingCurve& curve,
                                   const Box& box) {
  // The run count is exactly the number of merged intervals the streaming
  // enumeration produces (sfc/ranges owns the shared slice-encode loop).
  return static_cast<index_t>(cover_by_enumeration(curve, box).size());
}

index_t count_key_runs(const SpaceFillingCurve& curve, const Box& box,
                       RunCountEngine engine) {
  return engine == RunCountEngine::kEnumeration
             ? count_key_runs_enumeration(curve, box)
             : static_cast<index_t>(RangeCoverEngine(curve).cover(box).size());
}

ClusteringStats random_box_clustering(const SpaceFillingCurve& curve,
                                      coord_t extent, std::uint64_t samples,
                                      std::uint64_t seed,
                                      const ClusteringOptions& options) {
  const Universe& u = curve.universe();
  check_extent(u, extent);
  // Exact integer moments per deterministic chunk: integer addition is
  // associative, so combining partials in chunk order gives bit-identical
  // statistics for any thread count (and any scheduling).
  struct Partial {
    u128 sum = 0;
    u128 sum_sq = 0;
    index_t max = 0;
  };
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::shared();
  const Partial total = parallel_reduce(
      pool, samples, options.grain, Partial{},
      [&](const ChunkRange& range) {
        Partial partial;
        for (std::uint64_t s = range.begin; s < range.end; ++s) {
          // Per-sample RNG stream: the box drawn for sample s depends only
          // on (seed, s), never on which chunk or thread ran it.
          Xoshiro256 rng(SplitMix64(seed + s).next());
          const Box box = random_box(u, extent, rng);
          const index_t runs = count_key_runs(curve, box, options.engine);
          partial.sum += runs;
          partial.sum_sq += static_cast<u128>(runs) * runs;
          partial.max = std::max(partial.max, runs);
        }
        return partial;
      },
      [](Partial a, const Partial& b) {
        a.sum += b.sum;
        a.sum_sq += b.sum_sq;
        a.max = std::max(a.max, b.max);
        return a;
      });

  ClusteringStats result;
  result.extent = extent;
  result.samples = samples;
  result.cells_per_box = ipow(extent, u.dim());
  if (samples > 0) {
    const long double n = static_cast<long double>(samples);
    const long double sum = to_long_double(total.sum);
    result.mean_runs = static_cast<double>(sum / n);
    if (samples > 1) {
      const long double variance =
          std::max(0.0L, (to_long_double(total.sum_sq) - sum * sum / n) /
                             (n - 1.0L));
      result.stderr_runs = static_cast<double>(std::sqrt(variance / n));
    }
    result.max_runs = static_cast<double>(total.max);
  }
  return result;
}

ScanEfficiencyStats random_box_scan_efficiency(const PointIndex& index,
                                               coord_t extent,
                                               std::uint64_t samples,
                                               std::uint64_t seed,
                                               const ClusteringOptions& options) {
  const Universe& u = index.curve().universe();
  check_extent(u, extent);
  struct Partial {
    u128 returned = 0;
    u128 scanned = 0;
    u128 runs = 0;
    u128 runs_touched = 0;
  };
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::shared();
  const Partial total = parallel_reduce(
      pool, samples, options.grain, Partial{},
      [&](const ChunkRange& range) {
        // One engine per chunk, per-sample RNG streams (see
        // random_box_clustering): bit-identical for any thread count.
        RangeScanEngine engine(index);
        std::vector<std::uint32_t> ids;
        RangeScanStats stats;
        Partial partial;
        for (std::uint64_t s = range.begin; s < range.end; ++s) {
          Xoshiro256 rng(SplitMix64(seed + s).next());
          engine.scan(random_box(u, extent, rng), &ids, &stats);
          partial.returned += stats.rows_returned;
          partial.scanned += stats.rows_scanned;
          partial.runs += stats.runs_in_cover;
          partial.runs_touched += stats.runs_touched;
        }
        return partial;
      },
      [](Partial a, const Partial& b) {
        a.returned += b.returned;
        a.scanned += b.scanned;
        a.runs += b.runs;
        a.runs_touched += b.runs_touched;
        return a;
      });

  ScanEfficiencyStats result;
  result.extent = extent;
  result.samples = samples;
  result.index_rows = index.row_count();
  if (samples > 0) {
    const long double n = static_cast<long double>(samples);
    result.mean_rows_returned =
        static_cast<double>(to_long_double(total.returned) / n);
    result.mean_rows_scanned =
        static_cast<double>(to_long_double(total.scanned) / n);
    result.mean_runs = static_cast<double>(to_long_double(total.runs) / n);
    result.mean_runs_touched =
        static_cast<double>(to_long_double(total.runs_touched) / n);
    if (result.mean_rows_scanned > 0.0) {
      result.full_scan_ratio =
          static_cast<double>(index.row_count()) / result.mean_rows_scanned;
    }
  }
  return result;
}

}  // namespace sfc
