#include "sfc/index/columns_view.h"

#include <algorithm>
#include <limits>

namespace sfc {

std::uint64_t IndexColumnsView::lower_bound_row(index_t key) const {
  const auto dir_it =
      std::lower_bound(block_last_key_.begin(), block_last_key_.end(), key);
  if (dir_it == block_last_key_.end()) return row_count();
  const std::uint64_t block =
      static_cast<std::uint64_t>(dir_it - block_last_key_.begin());
  const std::uint64_t begin = block * block_rows_;
  const std::uint64_t end =
      std::min<std::uint64_t>(begin + block_rows_, row_count());
  return static_cast<std::uint64_t>(
      std::lower_bound(keys_.begin() + static_cast<std::ptrdiff_t>(begin),
                       keys_.begin() + static_cast<std::ptrdiff_t>(end), key) -
      keys_.begin());
}

std::pair<std::uint64_t, std::uint64_t> IndexColumnsView::rows_in_interval(
    index_t lo, index_t hi) const {
  const std::uint64_t first = lower_bound_row(lo);
  // upper_bound(hi) == lower_bound(hi + 1); keys are < 2^63 (cell counts),
  // so hi + 1 cannot wrap for in-universe intervals, but guard anyway.
  const std::uint64_t last = hi == std::numeric_limits<index_t>::max()
                                 ? row_count()
                                 : lower_bound_row(hi + 1);
  return {first, std::max(first, last)};
}

std::vector<index_t> build_block_directory(std::span<const index_t> keys,
                                           std::uint32_t block_rows) {
  std::vector<index_t> directory;
  directory.reserve((keys.size() + block_rows - 1) / block_rows);
  for (std::uint64_t begin = 0; begin < keys.size(); begin += block_rows) {
    directory.push_back(
        keys[std::min<std::uint64_t>(begin + block_rows, keys.size()) - 1]);
  }
  return directory;
}

}  // namespace sfc
