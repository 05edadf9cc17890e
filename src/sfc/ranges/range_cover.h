// Hierarchical box → key-range cover engine.
//
// The clustering metric of Moon, Jagadish, Faloutsos & Saltz (paper intro
// refs [9, 14, 18]) asks how many maximal runs of consecutive curve keys a
// rectangular query touches — the number of disk seeks a B-tree range scan
// pays.  Enumerating the box answers that in O(volume · log volume) work and
// O(volume) memory; this engine answers it *output-sensitively* by descending
// the curve's recursive subtree structure (SpaceFillingCurve subtree
// traversal): subtrees fully inside the box emit their whole key interval,
// subtrees fully outside are pruned, and only boundary subtrees recurse.
// Work is O(runs · log side); memory is O(runs) for the result plus
// O(arity · log side) for the descent stack — universes far beyond any
// enumerable size stay in reach (the nightly bench covers boxes of 2^40
// cells in a 2^56-cell universe).
//
// Curves without subtree structure (simple, snake, spiral, diagonal, tiled,
// permutation/random, toy) fall back to exact slab-streamed enumeration, so
// *every* family keeps exact answers through one entry point.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sfc/common/error.h"
#include "sfc/common/types.h"
#include "sfc/curves/space_filling_curve.h"
#include "sfc/grid/box.h"
#include "sfc/parallel/thread_pool.h"

namespace sfc {

/// Thrown by RangeCoverEngine::cover and cover_by_enumeration (and so by
/// every run count) when the query box does not lie inside
/// the curve's universe (wrong dimensionality or a corner coordinate beyond
/// the side); the message names the first offending coordinate.  Derives
/// from sfc::Error so drivers recover at the tool boundary instead of
/// aborting.
class RangeArgumentError : public Error {
 public:
  explicit RangeArgumentError(const std::string& what) : Error(what) {}
};

/// A maximal run of consecutive curve keys, inclusive on both ends.
struct KeyInterval {
  index_t lo = 0;
  index_t hi = 0;

  friend bool operator==(const KeyInterval& a, const KeyInterval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// First of the ascending, disjoint `intervals` that ends at or after `key`
/// (end() when none): the one holding `key`, else the next one up.
inline std::span<const KeyInterval>::iterator first_interval_ending_at(
    std::span<const KeyInterval> intervals, index_t key) {
  return std::lower_bound(
      intervals.begin(), intervals.end(), key,
      [](const KeyInterval& interval, index_t k) { return interval.hi < k; });
}

/// Optional instrumentation returned by RangeCoverEngine::cover.
struct CoverStats {
  /// Subtree nodes popped during the descent (0 on the enumeration path).
  std::uint64_t nodes_visited = 0;
  /// True when the subtree descent ran; false when the curve has no subtree
  /// structure and the slab-enumeration fallback produced the cover.
  bool used_subtree = false;
};

/// Reusable scratch buffers for RangeCoverEngine: the descent frontier, the
/// unmerged interval list, the merged cover, and the enumeration fallback's
/// key buffer.  Multi-query consumers (the point index's range scans, the
/// multi-query executor) keep one workspace per thread so that, after the
/// first query, covers are produced without allocating.
struct CoverWorkspace {
  std::vector<SubtreeNode> frontier;
  std::vector<SubtreeNode> children;
  std::vector<KeyInterval> raw;
  std::vector<KeyInterval> merged;
  std::vector<index_t> keys;
  /// Per-chunk scratch of the parallel frontier expansion (one slot per
  /// chunk in flight); untouched on the serial path.
  std::vector<std::vector<SubtreeNode>> chunk_frontier;
  std::vector<std::vector<KeyInterval>> chunk_raw;
};

/// Decomposes axis-aligned boxes into their exact, sorted, disjoint, maximal
/// curve-key intervals.  The box must lie inside the curve's universe.
class RangeCoverEngine {
 public:
  /// With a pool, a single huge box no longer runs on one core: once the
  /// level-synchronous frontier grows past a threshold, each level's
  /// expansion + classification is split over the pool on a fixed chunk
  /// grid and the per-chunk results are concatenated in chunk order — the
  /// frontier and the emitted intervals evolve exactly as in the serial
  /// descent, so the cover is identical for any pool size (verified at
  /// 2^40-cell boxes by tests/ranges/test_descent_kernels.cpp).  Multi-query
  /// consumers that already parallelize across boxes should keep pool ==
  /// nullptr (serial per-box descent).
  explicit RangeCoverEngine(const SpaceFillingCurve& curve,
                            ThreadPool* pool = nullptr)
      : curve_(curve), pool_(pool) {}

  /// The cover of `box`: sorted ascending, pairwise disjoint, maximal (no
  /// two intervals are adjacent), and Σ interval sizes == box.cell_count().
  /// The number of intervals is exactly the clustering number (key-run
  /// count) of the box.
  std::vector<KeyInterval> cover(const Box& box,
                                 CoverStats* stats = nullptr) const;

  /// Allocation-free variant for multi-query workloads: the cover lands in
  /// `ws.merged` (reusing its capacity) and the returned span views it — the
  /// span is valid until the workspace is next used or destroyed.
  std::span<const KeyInterval> cover(const Box& box, CoverWorkspace& ws,
                                     CoverStats* stats = nullptr) const;

  /// Interval-consumer form of the workspace overload: fn(interval) for each
  /// cover interval in ascending key order, without handing out the buffer.
  template <typename Fn>
  void for_each_interval(const Box& box, CoverWorkspace& ws, Fn&& fn,
                         CoverStats* stats = nullptr) const {
    for (const KeyInterval& interval : cover(box, ws, stats)) fn(interval);
  }

  const SpaceFillingCurve& curve() const { return curve_; }

 private:
  const SpaceFillingCurve& curve_;
  ThreadPool* pool_ = nullptr;
};

/// Exact cover by slab-streamed enumeration: batch-encode every cell of the
/// box in fixed-size slices, radix-sort the keys, merge adjacent keys into
/// intervals.  O(volume · log volume) work, O(volume) memory — the reference
/// implementation the subtree descent is verified against, and the fallback
/// for curves without subtree structure.  Throws RangeArgumentError for a
/// box outside the universe, like RangeCoverEngine::cover.
std::vector<KeyInterval> cover_by_enumeration(const SpaceFillingCurve& curve,
                                              const Box& box);

}  // namespace sfc
