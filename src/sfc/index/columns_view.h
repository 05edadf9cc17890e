// The storage-agnostic columns view every index query engine runs on.
//
// A built index is four flat columns — sorted curve keys, payload ids, points
// gathered into key order, and the sparse block directory — plus the curve
// that keyed them.  Where those columns live is a storage decision: owned
// std::vectors (PointIndex::build), a read-only mmap of an index file
// (sfc/store MappedIndex), or a mapped file's ids and points beside a repaired
// key column (a degraded sfc/serve generation).  IndexColumnsView is the
// span-based seam between the two layers:
// engines (RangeScanEngine, KnnEngine, the multi-query executor) accept a
// view and never know the backing storage, which is what makes in-memory and
// mmap-served queries bit-identical by construction.
//
// A view is non-owning and cheap to copy (six words of spans + a curve
// pointer); the storage it points at must outlive it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sfc/common/types.h"
#include "sfc/curves/space_filling_curve.h"
#include "sfc/grid/point.h"

namespace sfc {

class IndexColumnsView {
 public:
  IndexColumnsView() = default;

  /// Assembles a view over externally owned columns.  `keys`, `ids`, and
  /// `points` must have equal length and be sorted by (key, id);
  /// `block_last_key` must hold the max key of every `block_rows`-sized row
  /// block.  Invariants are the storage layer's contract — the view does not
  /// re-validate (MappedIndex validates once at open, PointIndex builds them
  /// true).
  IndexColumnsView(const SpaceFillingCurve& curve, std::uint32_t block_rows,
                   std::span<const index_t> keys,
                   std::span<const std::uint32_t> ids,
                   std::span<const Point> points,
                   std::span<const index_t> block_last_key)
      : curve_(&curve),
        block_rows_(block_rows),
        keys_(keys),
        ids_(ids),
        points_(points),
        block_last_key_(block_last_key) {}

  const SpaceFillingCurve& curve() const { return *curve_; }
  std::uint64_t row_count() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// Sorted key column; keys()[r] is row r's curve key.
  std::span<const index_t> keys() const { return keys_; }
  /// ids()[r] is the input position (payload id) of row r.
  std::span<const std::uint32_t> ids() const { return ids_; }
  /// points()[r] is the point of row r, gathered into key order.
  std::span<const Point> points() const { return points_; }
  /// Directory column: block_last_key()[b] = max key of rows
  /// [b*block_rows, (b+1)*block_rows).
  std::span<const index_t> block_last_key() const { return block_last_key_; }

  index_t key_of_row(std::uint64_t row) const { return keys_[row]; }
  std::uint32_t id_of_row(std::uint64_t row) const { return ids_[row]; }
  const Point& point_of_row(std::uint64_t row) const { return points_[row]; }

  std::uint32_t block_rows() const { return block_rows_; }
  std::uint64_t block_count() const { return block_last_key_.size(); }

  /// First row whose key is >= `key` (row_count() when none).  Searches the
  /// block directory, then binary-searches within the one resolved block.
  std::uint64_t lower_bound_row(index_t key) const;

  /// Half-open row range [first, second) of the rows whose keys lie in the
  /// inclusive key interval [lo, hi] — the resolution step of every
  /// interval-driven scan.
  std::pair<std::uint64_t, std::uint64_t> rows_in_interval(index_t lo,
                                                           index_t hi) const;

 private:
  const SpaceFillingCurve* curve_ = nullptr;
  std::uint32_t block_rows_ = 256;
  std::span<const index_t> keys_;
  std::span<const std::uint32_t> ids_;
  std::span<const Point> points_;
  std::span<const index_t> block_last_key_;
};

/// The block directory over sorted `keys`: the last key of every
/// `block_rows`-sized row block.
std::vector<index_t> build_block_directory(std::span<const index_t> keys,
                                           std::uint32_t block_rows);

}  // namespace sfc
