// Thread-pool-backed multi-query execution over an index columns view.
//
// Serving traffic means answering *batches* of queries, not one box at a
// time.  Each query is answered independently into its own pre-allocated
// result slot, chunks of queries share one scan/kNN engine (so cover
// workspaces and heaps are reused across a chunk without allocation churn),
// and chunk boundaries depend only on the query count and grain — the same
// fixed-chunk design as parallel_for / random_box_clustering — so results
// are bit-identical across 1/2/8 threads and any grain.
//
// The executors take IndexColumnsView: an owned PointIndex and a mmap-backed
// MappedIndex (sfc/store) run through the same code.  The serving front end
// (sfc/serve) feeds its admission batches here, on its generation's base
// view; a degraded generation passes its dead shards' key ranges as
// `excluded`, which the engines skip without reading.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sfc/grid/box.h"
#include "sfc/grid/point.h"
#include "sfc/index/columns_view.h"
#include "sfc/index/knn.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/parallel/thread_pool.h"

namespace sfc {

struct MultiQueryOptions {
  /// Worker pool; nullptr means ThreadPool::shared().  The pool size only
  /// affects wall clock, never any result or statistic.
  ThreadPool* pool = nullptr;
  /// Queries per deterministic chunk (0 = default 16).
  std::uint64_t grain = 16;
};

struct RangeQueryResult {
  /// Payload ids inside the box, in row order (ascending key).
  std::vector<std::uint32_t> ids;
  RangeScanStats stats;
  /// Indices into `excluded` of the ranges the box's cover intersects,
  /// ascending; empty means `ids` is the complete answer.
  std::vector<std::uint32_t> excluded_overlap;
};

struct KnnQueryResult {
  std::vector<KnnNeighbor> neighbors;
  KnnStats stats;
};

/// Answers every box query; result[i] corresponds to boxes[i].  Boxes must
/// lie inside the curve's universe.  Rows in `excluded` (sorted, disjoint
/// key ranges) are never read; see RangeScanEngine.
std::vector<RangeQueryResult> run_range_queries(
    const IndexColumnsView& view, std::span<const Box> boxes,
    const MultiQueryOptions& options = {},
    std::span<const KeyInterval> excluded = {});

/// Answers every kNN query; result[i] corresponds to queries[i].  Queries
/// must lie inside the curve's universe (IndexArgumentError otherwise).
/// Rows in `excluded` are never read, and then no answer is certified; see
/// KnnEngine.
std::vector<KnnQueryResult> run_knn_queries(
    const IndexColumnsView& view, std::span<const Point> queries,
    std::uint32_t k, const MultiQueryOptions& options = {},
    std::span<const KeyInterval> excluded = {});

}  // namespace sfc
