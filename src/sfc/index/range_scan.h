// Batched box range scans over an index columns view.
//
// A box query decomposes into its exact maximal key intervals (sfc/ranges);
// each interval resolves to a row range through the view's block directory
// and the rows are appended wholesale.  Because the cover is *exact* — every
// key in every interval corresponds to a cell inside the box — no per-row
// membership test is needed and zero rows are overscanned: work is
// O(runs · (log side + log n) + output) instead of the O(n) of a full scan
// (or the O(volume) of enumerating the box).  The full-scan reference path
// is kept for verification and as the baseline the CI bench gates against.
//
// The engine queries through IndexColumnsView, so the same code serves an
// in-memory PointIndex or a mmap-backed MappedIndex (sfc/store)
// bit-identically.  A degraded serving generation (sfc/serve) passes its dead
// shards' key ranges as `excluded`: the engine cuts them out of the cover and
// reports which of them the box needed, without reading a row inside them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sfc/grid/box.h"
#include "sfc/index/columns_view.h"
#include "sfc/index/point_index.h"
#include "sfc/ranges/range_cover.h"

namespace sfc {

struct RangeScanStats {
  /// Rows whose points lie inside the box (== ids emitted).
  std::uint64_t rows_returned = 0;
  /// Rows touched while answering.  Equals rows_returned on the cover path
  /// (exact covers never overscan); equals row_count() on the full scan.
  std::uint64_t rows_scanned = 0;
  /// Key intervals in the box's cover (its clustering number).
  std::uint64_t runs_in_cover = 0;
  /// Cover intervals that resolved to at least one (live) row.
  std::uint64_t runs_touched = 0;
  /// Subtree nodes visited by the cover descent (0 on enumeration/full scan).
  std::uint64_t nodes_visited = 0;
  bool used_subtree = false;
};

/// Cover-driven scan engine.  Owns a reusable cover workspace, so one engine
/// serves many queries without allocating; not thread-safe — the multi-query
/// executor keeps one per worker chunk.
class RangeScanEngine {
 public:
  /// `excluded` holds key ranges whose rows are never read: sorted ascending,
  /// disjoint, and outliving the engine.  Empty means every row is live.
  explicit RangeScanEngine(IndexColumnsView view,
                           std::span<const KeyInterval> excluded = {})
      : view_(view), excluded_(excluded), cover_(view.curve()) {}

  /// Appends to *out the payload id of every indexed point inside `box`, in
  /// row order (ascending key, duplicate keys in input order), skipping the
  /// excluded key ranges.  The box must lie inside the curve's universe.
  /// `out` is cleared first.  `excluded_overlap`, when given, is set to the
  /// indices into `excluded` of the ranges the box's cover intersects,
  /// ascending; it stays empty exactly when the answer is complete.
  void scan(const Box& box, std::vector<std::uint32_t>* out,
            RangeScanStats* stats = nullptr,
            std::vector<std::uint32_t>* excluded_overlap = nullptr);

  const IndexColumnsView& view() const { return view_; }

 private:
  IndexColumnsView view_;
  std::span<const KeyInterval> excluded_;
  RangeCoverEngine cover_;
  CoverWorkspace ws_;
};

/// Reference path: tests every row's point against the box.  O(row_count)
/// always; produces the identical id sequence (row order == key order).
std::vector<std::uint32_t> range_scan_full(const IndexColumnsView& view,
                                           const Box& box,
                                           RangeScanStats* stats = nullptr);

}  // namespace sfc
