#include "sfc/serve/sharded_index.h"

#include <algorithm>
#include <bit>

namespace sfc {

ShardedIndex::ShardedIndex(IndexColumnsView base, int shard_bits)
    : base_(base) {
  const std::uint64_t cells = base_.curve().universe().cell_count();
  const int key_bits =
      cells <= 1 ? 0 : static_cast<int>(std::bit_width(cells - 1));
  shard_bits_ = std::clamp(shard_bits, 0, key_bits);
  const std::size_t count = std::size_t{1} << shard_bits_;
  const int shift = key_bits - shard_bits_;

  key_ranges_.reserve(count);
  shard_row_begin_.reserve(count + 1);
  shard_row_begin_.push_back(0);
  for (std::size_t s = 0; s < count; ++s) {
    const index_t lo = static_cast<index_t>(s) << shift;
    const index_t next = static_cast<index_t>(s + 1) << shift;
    key_ranges_.push_back(KeyInterval{lo, next - 1});
    // Rows are key-sorted, so the shard's rows run up to the first key of
    // the next shard.  The max keeps the table monotone over a corrupt
    // column, whose shards then fail verification instead.
    shard_row_begin_.push_back(
        s + 1 == count ? base_.row_count()
                       : std::max(shard_row_begin_.back(),
                                  base_.lower_bound_row(next)));
  }
}

std::size_t ShardedIndex::shard_of_key(index_t key) const {
  return static_cast<std::size_t>(
      std::partition_point(key_ranges_.begin(), key_ranges_.end(),
                           [key](const KeyInterval& r) { return r.hi < key; }) -
      key_ranges_.begin());
}

}  // namespace sfc
