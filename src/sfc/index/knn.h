// Certified best-first kNN over a PointIndex.
//
// The classical SFC kNN heuristic scans a key window around the query and
// hopes it is wide enough (nn_query's knn_via_window, paper intro ref [5]) —
// the paper's stretch bounds say how wide "wide enough" must be.  This
// engine needs no window guess: it descends the curve's subtree hierarchy
// best-first, ordering a frontier of subtree nodes by the exact minimum
// squared Euclidean distance from the query to their subcubes
// (SubtreeNode::min_squared_distance).  Subtrees holding no indexed rows are
// pruned through the block directory; small row ranges are scanned; and the
// search stops with a *correctness certificate*: the k-th best distance
// found is <= the min distance of every unpopped frontier node, so no
// unvisited row can improve the answer.  Results are exact and
// deterministic — candidates are totally ordered by (squared distance,
// curve key, row), the order brute force produces.
//
// Curves without subtree structure fall back to a full scan of the rows
// (exact, trivially certified), so every family answers through one entry
// point.  Like the range scans, the engine queries through IndexColumnsView,
// so in-memory and mmap-backed storage answer bit-identically.  Key ranges
// passed as `excluded` (a degraded generation's dead shards, sfc/serve) are
// never read: nodes lying wholly inside them are pruned, leaf scans skip
// their rows, and the answer is reported uncertified.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sfc/grid/point.h"
#include "sfc/index/columns_view.h"
#include "sfc/index/point_index.h"
#include "sfc/ranges/range_cover.h"

namespace sfc {

/// One kNN result row.
struct KnnNeighbor {
  std::uint32_t id = 0;        ///< payload id of the input point
  index_t key = 0;             ///< its curve key
  std::uint64_t sq_dist = 0;   ///< exact squared Euclidean distance to query

  friend bool operator==(const KnnNeighbor& a, const KnnNeighbor& b) {
    return a.id == b.id && a.key == b.key && a.sq_dist == b.sq_dist;
  }
};

struct KnnStats {
  /// Subtree nodes expanded into children (0 on the full-scan path).
  std::uint64_t nodes_expanded = 0;
  /// Frontier pushes (root + children surviving the emptiness prune).
  std::uint64_t frontier_pushes = 0;
  /// Rows whose distance was evaluated.
  std::uint64_t rows_scanned = 0;
  /// True when the search terminated with the frontier certificate
  /// (k-th distance <= min distance of any unpopped node), or by exhausting
  /// every candidate (full scan / frontier drained) — always true on exit,
  /// unless the engine ran with excluded key ranges: a closer row may lie in
  /// them, so those answers are never certified.
  bool certified = false;
  /// True when the certificate came from a non-empty frontier; then
  /// frontier_sq_dist is the min squared distance of the unpopped nodes.
  bool frontier_bound_valid = false;
  std::uint64_t frontier_sq_dist = 0;
  /// False when the curve has no subtree structure and the engine fell back
  /// to the exhaustive row scan.
  bool used_subtree = false;
};

/// Best-first kNN engine.  Reuses its heaps across queries; not thread-safe
/// — the multi-query executor keeps one per worker chunk.
class KnnEngine {
 public:
  /// Row ranges at most this long are scanned instead of descending further.
  static constexpr std::uint64_t kLeafRows = 64;

  /// `excluded` holds key ranges whose rows are never read: sorted ascending,
  /// disjoint, and outliving the engine.  Empty means every row is live.
  explicit KnnEngine(IndexColumnsView view,
                     std::span<const KeyInterval> excluded = {})
      : view_(view), excluded_(excluded) {}

  /// The k live rows nearest to `query` under the total order (squared
  /// Euclidean distance, curve key, row), ascending — fewer when the view
  /// holds fewer than k live rows.  Duplicate points are distinct rows and
  /// are all reported.
  /// The query must lie inside the curve's universe (throws
  /// IndexArgumentError otherwise).
  std::vector<KnnNeighbor> query(const Point& query, std::uint32_t k,
                                 KnnStats* stats = nullptr);

  const IndexColumnsView& view() const { return view_; }

 private:
  struct Candidate {
    std::uint64_t sq_dist;
    index_t key;
    std::uint64_t row;
  };
  struct Visit {
    std::uint64_t sq_dist;
    SubtreeNode node;
    // Row range of the node's key interval, resolved once at push time (the
    // index is immutable, so it cannot change before the pop).
    std::uint64_t row_first;
    std::uint64_t row_last;
  };

  void consider_rows(const Point& query, std::uint32_t k, std::uint64_t first,
                     std::uint64_t last, KnnStats& stats);
  /// consider_rows over the rows of [first, last) outside excluded ranges.
  void consider_live_rows(const Point& query, std::uint32_t k,
                          std::uint64_t first, std::uint64_t last,
                          KnnStats& stats);
  /// True when keys [lo, hi] lie inside one excluded range.
  bool excluded_whole(index_t lo, index_t hi) const;

  IndexColumnsView view_;
  std::span<const KeyInterval> excluded_;
  // Max-heap of the best k candidates (top = current k-th) and min-heap of
  // frontier nodes by (subcube min distance, key_lo); see knn.cpp.
  std::vector<Candidate> best_;
  std::vector<Visit> frontier_;
  std::vector<SubtreeNode> children_;
};

}  // namespace sfc
