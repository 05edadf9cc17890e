// Curve-contiguous shards of an index columns view, as a key-range table.
//
// Splitting by the *leading* bits of the curve key partitions the rows into
// 2^shard_bits contiguous key ranges — and, because rows are key-sorted,
// into contiguous row ranges too.  The paper's clustering results are why
// this is the right split: curve-contiguous shards inherit the curve's
// proximity preservation, so corruption confined to one shard stays away
// from most boxes and most kNN neighborhoods.
//
// Shards are not an execution unit.  Every query runs once, on the base
// view, through the executors of sfc/index; a shard is the unit of
// degraded-mode liveness (sfc/serve/generation): a degraded generation hands
// its dead shards' key ranges to those same executors as exclusions.  The
// two ShardedIndex executor overloads below forward to the base view.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sfc/index/columns_view.h"
#include "sfc/index/executor.h"
#include "sfc/ranges/range_cover.h"

namespace sfc {

/// The shard table over any index storage (in-memory PointIndex or
/// mmap-backed MappedIndex — anything that yields an IndexColumnsView).  The
/// base storage must outlive the sharded index.
class ShardedIndex {
 public:
  /// Splits `base` into 2^shard_bits curve-contiguous shards.  shard_bits is
  /// clamped to the key width of the universe, so tiny universes simply get
  /// fewer shards; shard_bits = 0 means one shard (the base view itself).
  explicit ShardedIndex(IndexColumnsView base, int shard_bits = 0);

  const IndexColumnsView& base() const { return base_; }
  int shard_bits() const { return shard_bits_; }
  std::size_t shard_count() const { return key_ranges_.size(); }

  /// Inclusive key range [lo, hi] owned by shard s; shards ascend in key.
  KeyInterval shard_key_range(std::size_t s) const { return key_ranges_[s]; }
  /// The shard whose key range holds `key`, a key inside the universe.
  std::size_t shard_of_key(index_t key) const;

  /// Base-view row of shard s's first row; shard s owns rows
  /// [shard_row_begin(s), shard_row_begin(s + 1)), and
  /// shard_row_begin(shard_count()) is the base view's row count.
  std::uint64_t shard_row_begin(std::size_t s) const {
    return shard_row_begin_[s];
  }

 private:
  IndexColumnsView base_;
  int shard_bits_ = 0;
  std::vector<KeyInterval> key_ranges_;
  std::vector<std::uint64_t> shard_row_begin_;  ///< shard_count() + 1 entries
};

/// The base view's executors; results are the unsharded results for every
/// shard count.
inline std::vector<RangeQueryResult> run_range_queries(
    const ShardedIndex& index, std::span<const Box> boxes,
    const MultiQueryOptions& options = {}) {
  return run_range_queries(index.base(), boxes, options);
}

inline std::vector<KnnQueryResult> run_knn_queries(
    const ShardedIndex& index, std::span<const Point> queries, std::uint32_t k,
    const MultiQueryOptions& options = {}) {
  return run_knn_queries(index.base(), queries, k, options);
}

}  // namespace sfc
