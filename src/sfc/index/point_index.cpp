#include "sfc/index/point_index.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "sfc/obs/metrics.h"
#include "sfc/obs/span_trace.h"
#include "sfc/sort/radix_sort.h"

namespace sfc {

namespace {

/// Smallest input position holding an invalid point, or points.size() when
/// the dataset is clean.  A deterministic reduction (min over chunk minima)
/// so the error message names the same point for every thread count.
std::uint64_t first_invalid_point(const Universe& u,
                                  std::span<const Point> points,
                                  ThreadPool& pool, std::uint64_t grain) {
  const std::uint64_t n = points.size();
  return parallel_reduce(
      pool, n, grain, n,
      [&](const ChunkRange& range) {
        for (std::uint64_t i = range.begin; i < range.end; ++i) {
          if (points[i].dim() != u.dim() || !u.contains(points[i])) return i;
        }
        return n;
      },
      [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
}

}  // namespace

PointIndex PointIndex::build(const SpaceFillingCurve& curve,
                             std::span<const Point> points,
                             const IndexBuildOptions& options) {
  const double build_start_us = trace_now_us();
  if (points.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw IndexArgumentError(
        "point index build: " + std::to_string(points.size()) +
        " points exceed the 32-bit payload-id limit");
  }
  const Universe& u = curve.universe();
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::shared();
  const std::uint64_t grain =
      options.grain == 0 ? kDefaultGrain : options.grain;
  const std::uint64_t bad = first_invalid_point(u, points, pool, grain);
  if (bad != points.size()) {
    throw IndexArgumentError(
        "point index build: point at position " + std::to_string(bad) + " " +
        points[bad].to_string() + " lies outside the d=" +
        std::to_string(u.dim()) + " side-" + std::to_string(u.side()) +
        " universe");
  }

  PointIndex index;
  index.curve_ = &curve;
  index.block_rows_ = options.block_rows == 0 ? 256 : options.block_rows;

  SortOptions sort_options;
  sort_options.pool = &pool;
  sort_options.grain = grain;
  SortedKeyColumns columns = sort_curve_key_columns(curve, points, sort_options);
  index.keys_ = std::move(columns.keys);
  index.ids_ = std::move(columns.ids);

  // Gather the points into key order so interval scans stream contiguously.
  const std::uint64_t n = index.keys_.size();
  index.points_.resize(n);
  parallel_for_chunks(pool, n, grain, [&](const ChunkRange& range) {
    for (std::uint64_t i = range.begin; i < range.end; ++i) {
      index.points_[i] = points[index.ids_[i]];
    }
  });

  // Sparse directory: the last (max) key of each row block.  With sorted
  // keys this is one strided read of the key column.
  index.block_last_key_ = build_block_directory(index.keys_, index.block_rows_);
  if (obs_enabled()) {
    const double build_us = trace_now_us() - build_start_us;
    MetricsRegistry::global().counter("index.builds").add(1);
    MetricsRegistry::global().counter("index.build_rows").add(n);
    MetricsRegistry::global().histogram("index.build_us").record_us(build_us);
    TraceSpan span;
    span.name = "index_build";
    span.category = "index";
    span.start_us = build_start_us;
    span.dur_us = build_us;
    span.tid = trace_thread_id();
    span.add_arg("rows", n);
    span.add_arg("blocks", index.block_last_key_.size());
    TraceRing::global().record(span);
  }
  return index;
}

}  // namespace sfc
