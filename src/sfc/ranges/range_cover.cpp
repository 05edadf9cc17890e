#include "sfc/ranges/range_cover.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>

#include "sfc/common/batch.h"
#include "sfc/common/math.h"
#include "sfc/obs/metrics.h"
#include "sfc/parallel/parallel_for.h"
#include "sfc/sort/radix_sort.h"

namespace sfc {

namespace {

struct CoverMetrics {
  MetricsRegistry::Counter covers;
  MetricsRegistry::Counter subtree_covers;
  MetricsRegistry::Counter intervals;
  MetricsRegistry::Counter nodes_visited;
};

CoverMetrics& cover_metrics() {
  static CoverMetrics metrics{
      MetricsRegistry::global().counter("ranges.covers"),
      MetricsRegistry::global().counter("ranges.subtree_covers"),
      MetricsRegistry::global().counter("ranges.intervals"),
      MetricsRegistry::global().counter("ranges.nodes_visited"),
  };
  return metrics;
}

/// node ∩ box classification for the descent.
enum class Overlap { kDisjoint, kInside, kPartial };

/// Frontier nodes per chunk of the parallel descent, and the frontier size
/// at which the parallel path engages.  Both are part of the deterministic
/// contract only through the chunk grid (count + grain), never the pool
/// size.
constexpr std::uint64_t kParallelCoverGrain = 256;
constexpr std::uint64_t kParallelCoverThreshold = 1024;

Overlap classify(const SubtreeNode& node, const Box& box) {
  bool inside = true;
  const int d = box.dim();
  for (int i = 0; i < d; ++i) {
    const coord_t node_lo = node.origin[i];
    const coord_t node_hi = node.origin[i] + (node.side - 1);
    if (node_lo > box.hi()[i] || node_hi < box.lo()[i]) {
      return Overlap::kDisjoint;
    }
    inside = inside && node_lo >= box.lo()[i] && node_hi <= box.hi()[i];
  }
  return inside ? Overlap::kInside : Overlap::kPartial;
}

/// Appends [lo, hi], fusing with the previous interval when adjacent.  The
/// descent emits intervals in ascending key order, so this single look-back
/// is all the merging maximality needs.
void emit(std::vector<KeyInterval>& out, index_t lo, index_t hi) {
  if (!out.empty() && out.back().hi + 1 == lo) {
    out.back().hi = hi;
  } else {
    out.push_back(KeyInterval{lo, hi});
  }
}

/// Every public cover path (and so every run count) refuses such a box.
void check_box_in_universe(const Universe& u, const Box& box) {
  if (box.dim() != u.dim()) {
    throw RangeArgumentError(
        "range cover: box of dimension " + std::to_string(box.dim()) +
        " queried against a d=" + std::to_string(u.dim()) + " universe");
  }
  for (int i = 0; i < u.dim(); ++i) {
    for (const Point& corner : {box.lo(), box.hi()}) {
      if (corner[i] >= u.side()) {
        throw RangeArgumentError(
            "range cover: box corner " + corner.to_string() + " coordinate " +
            std::to_string(i + 1) + " = " + std::to_string(corner[i]) +
            " lies outside the side-" + std::to_string(u.side()) +
            " universe");
      }
    }
  }
}

/// Shared streaming loop of the enumeration path: batch-encode every cell of
/// the box into `keys` (reusing its capacity), sort, merge adjacent keys.
void enumerate_cover_into(const SpaceFillingCurve& curve, const Box& box,
                          std::vector<index_t>& keys,
                          std::vector<KeyInterval>& out) {
  keys.clear();
  keys.reserve(box.cell_count());
  std::array<Point, kBoxSliceCells> cell_buf;
  std::size_t pending = 0;
  auto flush = [&] {
    const std::size_t at = keys.size();
    keys.resize(at + pending);
    curve.index_of_batch(std::span<const Point>(cell_buf.data(), pending),
                         std::span<index_t>(keys.data() + at, pending));
    pending = 0;
  };
  box.for_each_cell([&](const Point& cell) {
    cell_buf[pending++] = cell;
    if (pending == cell_buf.size()) flush();
  });
  if (pending > 0) flush();
  radix_sort_keys(keys);
  out.clear();
  for (const index_t key : keys) emit(out, key, key);
}

}  // namespace

std::vector<KeyInterval> RangeCoverEngine::cover(const Box& box,
                                                 CoverStats* stats) const {
  CoverWorkspace ws;
  const std::span<const KeyInterval> result = cover(box, ws, stats);
  return std::vector<KeyInterval>(result.begin(), result.end());
}

std::span<const KeyInterval> RangeCoverEngine::cover(const Box& box,
                                                     CoverWorkspace& ws,
                                                     CoverStats* stats) const {
  const Universe& u = curve_.universe();
  check_box_in_universe(u, box);
  if (stats != nullptr) *stats = CoverStats{};
  if (!curve_.has_subtree_traversal()) {
    enumerate_cover_into(curve_, box, ws.keys, ws.merged);
    if (obs_enabled()) {
      cover_metrics().covers.add(1);
      cover_metrics().intervals.add(ws.merged.size());
    }
    return ws.merged;
  }
  if (stats != nullptr) stats->used_subtree = true;

  const index_t arity = ipow(curve_.subtree_radix(), u.dim());
  // Level-synchronous descent over boundary subtrees: the whole frontier of
  // partial nodes expands through one subtree_children_batch call per level,
  // so decode-based curves (Hilbert, Peano) amortize their batch kernel's
  // per-call setup across the frontier instead of paying it per node.
  // Emitted intervals are disjoint but arrive out of key order across
  // levels; a final sort + adjacent-merge restores the canonical maximal
  // cover.  Work stays O(runs · log side), plus the O(runs · log runs) sort.
  std::vector<KeyInterval>& out = ws.raw;
  std::vector<SubtreeNode>& frontier = ws.frontier;
  std::vector<SubtreeNode>& children = ws.children;
  out.clear();
  frontier.clear();
  const SubtreeNode root = curve_.subtree_root();
  if (stats != nullptr) ++stats->nodes_visited;
  switch (classify(root, box)) {
    case Overlap::kDisjoint:
      break;
    case Overlap::kInside:
      out.push_back(KeyInterval{root.key_lo, root.key_lo + (root.key_count - 1)});
      break;
    case Overlap::kPartial:
      frontier.push_back(root);
      break;
  }
  while (!frontier.empty()) {
    const std::uint64_t node_count = frontier.size();
    children.resize(node_count * arity);
    if (pool_ != nullptr && node_count >= kParallelCoverThreshold) {
      // Parallel level expansion: each chunk of the frontier expands and
      // classifies its own children into per-chunk buffers; concatenating
      // those buffers in chunk order reproduces the serial child order
      // exactly, so the next frontier — and every emitted interval — is
      // identical for any pool size.
      const std::uint64_t chunks = chunk_count(node_count, kParallelCoverGrain);
      ws.chunk_frontier.resize(chunks);
      ws.chunk_raw.resize(chunks);
      parallel_for_chunks(
          *pool_, node_count, kParallelCoverGrain,
          [&](const ChunkRange& range) {
            const std::span<const SubtreeNode> nodes(
                frontier.data() + range.begin, range.end - range.begin);
            const std::span<SubtreeNode> kids(
                children.data() + range.begin * arity, nodes.size() * arity);
            curve_.subtree_children_batch(nodes, kids);
            std::vector<SubtreeNode>& local_frontier =
                ws.chunk_frontier[range.chunk_index];
            std::vector<KeyInterval>& local_out = ws.chunk_raw[range.chunk_index];
            local_frontier.clear();
            local_out.clear();
            for (const SubtreeNode& child : kids) {
              switch (classify(child, box)) {
                case Overlap::kDisjoint:
                  break;
                case Overlap::kInside:
                  local_out.push_back(KeyInterval{
                      child.key_lo, child.key_lo + (child.key_count - 1)});
                  break;
                case Overlap::kPartial:
                  local_frontier.push_back(child);
                  break;
              }
            }
          });
      if (stats != nullptr) stats->nodes_visited += children.size();
      frontier.clear();
      for (std::uint64_t c = 0; c < chunks; ++c) {
        out.insert(out.end(), ws.chunk_raw[c].begin(), ws.chunk_raw[c].end());
        frontier.insert(frontier.end(), ws.chunk_frontier[c].begin(),
                        ws.chunk_frontier[c].end());
      }
      continue;
    }
    curve_.subtree_children_batch(frontier, children);
    if (stats != nullptr) stats->nodes_visited += children.size();
    frontier.clear();
    for (const SubtreeNode& child : children) {
      switch (classify(child, box)) {
        case Overlap::kDisjoint:
          break;
        case Overlap::kInside:
          out.push_back(
              KeyInterval{child.key_lo, child.key_lo + (child.key_count - 1)});
          break;
        case Overlap::kPartial:
          // A single cell either misses the box or is inside it, so a
          // partial node always has side > 1 and can descend further.
          frontier.push_back(child);
          break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const KeyInterval& a, const KeyInterval& b) { return a.lo < b.lo; });
  std::vector<KeyInterval>& merged = ws.merged;
  merged.clear();
  merged.reserve(out.size());
  for (const KeyInterval& interval : out) {
    emit(merged, interval.lo, interval.hi);
  }
  if (obs_enabled()) {
    CoverMetrics& metrics = cover_metrics();
    metrics.covers.add(1);
    metrics.subtree_covers.add(1);
    metrics.intervals.add(merged.size());
    if (stats != nullptr) metrics.nodes_visited.add(stats->nodes_visited);
  }
  return merged;
}

std::vector<KeyInterval> cover_by_enumeration(const SpaceFillingCurve& curve,
                                              const Box& box) {
  check_box_in_universe(curve.universe(), box);
  std::vector<index_t> keys;
  std::vector<KeyInterval> out;
  enumerate_cover_into(curve, box, keys, out);
  return out;
}

}  // namespace sfc
