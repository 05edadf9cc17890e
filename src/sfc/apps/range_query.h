// Secondary-memory range queries over SFC-ordered data (paper intro refs
// [9, 14, 18]).
//
// When multi-dimensional records are stored in curve-key order (e.g. in a
// B-tree), a rectangular query touches as many disk seeks as the number of
// maximal runs of consecutive keys inside the query box — the "clustering"
// metric of Moon, Jagadish, Faloutsos & Saltz.  This module counts runs
// exactly for a given box and estimates the average over random boxes.
//
// Two engines produce bit-identical counts: the hierarchical cover engine
// (sfc/ranges, O(runs · log side) via subtree descent) and the streaming
// enumeration reference path (O(volume · log volume)).  The default is the
// cover engine; both reject a box outside the universe.
#pragma once

#include <cstdint>

#include "sfc/common/types.h"
#include "sfc/curves/space_filling_curve.h"
#include "sfc/grid/box.h"
#include "sfc/index/point_index.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc/rng/sampling.h"

namespace sfc {

/// How count_key_runs / random_box_clustering compute the run count.
enum class RunCountEngine {
  /// Hierarchical cover (RangeCoverEngine); falls back to enumeration for
  /// curves without subtree structure.
  kCover,
  /// Slab-streamed enumeration of every cell in the box — the reference
  /// implementation the cover path is verified against.
  kEnumeration,
};

/// Number of maximal runs of consecutive curve keys covering the box
/// (the clustering number of the query region).
index_t count_key_runs(const SpaceFillingCurve& curve, const Box& box,
                       RunCountEngine engine = RunCountEngine::kCover);

/// The enumeration reference path: batch-encodes every cell of the box in
/// fixed-size slices, sorts, and counts the merged key runs (the shared
/// streaming loop lives in sfc/ranges cover_by_enumeration).
index_t count_key_runs_enumeration(const SpaceFillingCurve& curve,
                                   const Box& box);

struct ClusteringStats {
  coord_t extent = 0;          // box side length
  std::uint64_t samples = 0;
  double mean_runs = 0.0;
  double stderr_runs = 0.0;
  double max_runs = 0.0;
  index_t cells_per_box = 0;   // extent^d
};

struct ClusteringOptions {
  /// Worker pool for sampling; nullptr means ThreadPool::shared().  Each
  /// sample draws its boxes from a per-sample RNG stream and the per-sample
  /// run counts are reduced as exact integers, so the result is bit-identical
  /// across any thread count.
  ThreadPool* pool = nullptr;
  RunCountEngine engine = RunCountEngine::kCover;
  /// Samples per deterministic reduction chunk.
  std::uint64_t grain = 64;
};

/// Average clustering number over `samples` uniformly placed cubic boxes of
/// the given extent.  Throws RangeArgumentError when the extent lies outside
/// [1, side].
ClusteringStats random_box_clustering(const SpaceFillingCurve& curve,
                                      coord_t extent, std::uint64_t samples,
                                      std::uint64_t seed,
                                      const ClusteringOptions& options = {});

/// Scan-efficiency of index-backed range queries (sfc/index): how much of
/// the stored data a rectangular query actually touches.
struct ScanEfficiencyStats {
  coord_t extent = 0;
  std::uint64_t samples = 0;
  std::uint64_t index_rows = 0;       ///< rows a full scan pays per query
  double mean_rows_returned = 0.0;
  double mean_rows_scanned = 0.0;     ///< == returned: exact covers overscan 0
  double mean_runs = 0.0;             ///< mean cover intervals per query
  double mean_runs_touched = 0.0;     ///< intervals resolving to >= 1 row
  /// index_rows / mean_rows_scanned — the row-touch advantage over a full
  /// scan (what bench/perf_index_query gates in wall clock).
  double full_scan_ratio = 0.0;
};

/// Runs `samples` uniformly placed extent^d box queries against the index
/// (per-sample RNG streams + deterministic reduction, like
/// random_box_clustering: bit-identical for any thread count/grain).  Throws
/// RangeArgumentError when the extent lies outside [1, side].
ScanEfficiencyStats random_box_scan_efficiency(
    const PointIndex& index, coord_t extent, std::uint64_t samples,
    std::uint64_t seed, const ClusteringOptions& options = {});

}  // namespace sfc
