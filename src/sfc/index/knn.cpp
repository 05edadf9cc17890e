#include "sfc/index/knn.h"

#include <algorithm>
#include <string>
#include <tuple>

#include "sfc/common/math.h"
#include "sfc/obs/metrics.h"

namespace sfc {

namespace {

struct KnnMetrics {
  MetricsRegistry::Counter queries;
  MetricsRegistry::Counter neighbors_returned;
  MetricsRegistry::Counter nodes_expanded;
  MetricsRegistry::Counter frontier_pushes;
  MetricsRegistry::Counter rows_scanned;
  MetricsRegistry::Counter certified;
};

KnnMetrics& knn_metrics() {
  static KnnMetrics metrics{
      MetricsRegistry::global().counter("index.knn.queries"),
      MetricsRegistry::global().counter("index.knn.neighbors_returned"),
      MetricsRegistry::global().counter("index.knn.nodes_expanded"),
      MetricsRegistry::global().counter("index.knn.frontier_pushes"),
      MetricsRegistry::global().counter("index.knn.rows_scanned"),
      MetricsRegistry::global().counter("index.knn.certified"),
  };
  return metrics;
}

/// The total candidate order: (squared distance, curve key, row) ascending —
/// exactly what a brute-force stable ranking produces, so index answers are
/// bit-identical to the reference scan, ties included.
struct Closer {
  template <typename C>
  bool operator()(const C& a, const C& b) const {
    return std::tie(a.sq_dist, a.key, a.row) < std::tie(b.sq_dist, b.key, b.row);
  }
};

/// Min-heap order for the frontier: nearest subcube first, ties by key_lo so
/// the pop sequence (and therefore every statistic) is deterministic.
struct FrontierAfter {
  template <typename V>
  bool operator()(const V& a, const V& b) const {
    return std::tie(a.sq_dist, a.node.key_lo) > std::tie(b.sq_dist, b.node.key_lo);
  }
};

}  // namespace

void KnnEngine::consider_rows(const Point& query, std::uint32_t k,
                              std::uint64_t first, std::uint64_t last,
                              KnnStats& stats) {
  const std::span<const Point> points = view_.points();
  const std::span<const index_t> keys = view_.keys();
  const Closer closer;
  for (std::uint64_t row = first; row < last; ++row) {
    ++stats.rows_scanned;
    const Candidate candidate{squared_euclidean_distance(query, points[row]),
                              keys[row], row};
    if (best_.size() < k) {
      best_.push_back(candidate);
      std::push_heap(best_.begin(), best_.end(), closer);
    } else if (closer(candidate, best_.front())) {
      std::pop_heap(best_.begin(), best_.end(), closer);
      best_.back() = candidate;
      std::push_heap(best_.begin(), best_.end(), closer);
    }
  }
}

void KnnEngine::consider_live_rows(const Point& query, std::uint32_t k,
                                   std::uint64_t first, std::uint64_t last,
                                   KnnStats& stats) {
  if (!excluded_.empty() && first < last) {
    // Rows are key-sorted, so each excluded range the row range's keys reach
    // is one contiguous run of rows to step over.
    const std::span<const index_t> keys = view_.keys();
    const auto row_of = [&](auto it) {
      return static_cast<std::uint64_t>(it - keys.begin());
    };
    for (auto it = first_interval_ending_at(excluded_, keys[first]);
         it != excluded_.end() && first < last && it->lo <= keys[last - 1];
         ++it) {
      const auto end = keys.begin() + static_cast<std::ptrdiff_t>(last);
      const std::uint64_t dead_first = row_of(std::lower_bound(
          keys.begin() + static_cast<std::ptrdiff_t>(first), end, it->lo));
      consider_rows(query, k, first, dead_first, stats);
      first = row_of(std::upper_bound(
          keys.begin() + static_cast<std::ptrdiff_t>(dead_first), end,
          it->hi));
    }
  }
  consider_rows(query, k, first, last, stats);
}

bool KnnEngine::excluded_whole(index_t lo, index_t hi) const {
  const auto it = first_interval_ending_at(excluded_, lo);
  return it != excluded_.end() && it->lo <= lo && hi <= it->hi;
}

std::vector<KnnNeighbor> KnnEngine::query(const Point& query, std::uint32_t k,
                                          KnnStats* stats) {
  const SpaceFillingCurve& curve = view_.curve();
  const Universe& u = curve.universe();
  if (query.dim() != u.dim() || !u.contains(query)) {
    throw IndexArgumentError("knn query: point " + query.to_string() +
                             " lies outside the d=" + std::to_string(u.dim()) +
                             " side-" + std::to_string(u.side()) + " universe");
  }
  KnnStats local;
  best_.clear();
  frontier_.clear();

  // Every exit below certifies (the frontier bound, a drained frontier, or
  // the exhaustive scan) unless rows were excluded: they were never read, so
  // a closer neighbor may hide there.
  local.certified = excluded_.empty();

  if (k == 0 || view_.empty()) {
    if (obs_enabled()) {
      knn_metrics().queries.add(1);
      if (local.certified) knn_metrics().certified.add(1);
    }
    if (stats != nullptr) *stats = local;
    return {};
  }

  if (!curve.has_subtree_traversal()) {
    // No hierarchy to descend: exhaustive scan.
    consider_live_rows(query, k, 0, view_.row_count(), local);
  } else {
    local.used_subtree = true;
    const FrontierAfter after;
    const index_t arity = ipow(curve.subtree_radix(), u.dim());
    const SubtreeNode root = curve.subtree_root();
    frontier_.push_back(Visit{root.min_squared_distance(query), root, 0,
                              view_.row_count()});
    ++local.frontier_pushes;
    while (!frontier_.empty()) {
      std::pop_heap(frontier_.begin(), frontier_.end(), after);
      const Visit visit = frontier_.back();
      frontier_.pop_back();
      if (best_.size() == k && visit.sq_dist > best_.front().sq_dist) {
        // Certificate: the k-th best distance is <= the min distance of this
        // and (by heap order) every remaining frontier node — no unvisited
        // row can enter the result.  Ties (==) keep descending so the
        // (distance, key, row) tie-break stays exact.
        local.frontier_bound_valid = true;
        local.frontier_sq_dist = visit.sq_dist;
        break;
      }
      const SubtreeNode& node = visit.node;
      if (node.side == 1 || visit.row_last - visit.row_first <= kLeafRows) {
        consider_live_rows(query, k, visit.row_first, visit.row_last, local);
        continue;
      }
      ++local.nodes_expanded;
      children_.resize(arity);
      curve.subtree_children(node, children_);
      for (const SubtreeNode& child : children_) {
        const index_t child_hi = child.key_lo + (child.key_count - 1);
        if (excluded_whole(child.key_lo, child_hi)) continue;  // dead: prune
        const auto [child_first, child_last] =
            view_.rows_in_interval(child.key_lo, child_hi);
        if (child_first == child_last) continue;  // no rows: prune
        const std::uint64_t child_dist = child.min_squared_distance(query);
        if (best_.size() == k && child_dist > best_.front().sq_dist) continue;
        frontier_.push_back(Visit{child_dist, child, child_first, child_last});
        std::push_heap(frontier_.begin(), frontier_.end(), after);
        ++local.frontier_pushes;
      }
    }
  }

  std::sort(best_.begin(), best_.end(), Closer{});
  std::vector<KnnNeighbor> result;
  result.reserve(best_.size());
  for (const Candidate& candidate : best_) {
    result.push_back(KnnNeighbor{view_.id_of_row(candidate.row), candidate.key,
                                 candidate.sq_dist});
  }
  if (obs_enabled()) {
    KnnMetrics& metrics = knn_metrics();
    metrics.queries.add(1);
    metrics.neighbors_returned.add(result.size());
    metrics.nodes_expanded.add(local.nodes_expanded);
    metrics.frontier_pushes.add(local.frontier_pushes);
    metrics.rows_scanned.add(local.rows_scanned);
    if (local.certified) metrics.certified.add(1);
  }
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace sfc
