#include "sfc/metrics/slab_walker.h"

#include "sfc/common/batch.h"

namespace sfc {

void encode_row_major_range(const SpaceFillingCurve& curve, index_t begin,
                            std::span<index_t> keys) {
  const Universe& u = curve.universe();
  const int d = u.dim();
  const coord_t side = u.side();
  std::vector<Point> cells(std::min<std::size_t>(keys.size(), kEncodeSliceCells));
  Point cell = u.from_row_major(begin);
  std::size_t done = 0;
  while (done < keys.size()) {
    const std::size_t len =
        std::min<std::size_t>(kEncodeSliceCells, keys.size() - done);
    for (std::size_t j = 0; j < len; ++j) {
      cells[j] = cell;
      // Advance the coordinates in row-major order (dimension 1 fastest).
      int i = 0;
      while (i < d) {
        if (++cell[i] < side) break;
        cell[i] = 0;
        ++i;
      }
    }
    curve.index_of_batch(std::span<const Point>(cells.data(), len),
                         std::span<index_t>(keys.data() + done, len));
    done += len;
  }
}

void build_key_table(const SpaceFillingCurve& curve, ThreadPool& pool,
                     std::span<index_t> keys, std::uint64_t grain) {
  parallel_for_chunks(pool, keys.size(), grain, [&](const ChunkRange& range) {
    encode_row_major_range(
        curve, range.begin,
        std::span<index_t>(keys.data() + range.begin, range.end - range.begin));
  });
}

index_t dim_stride(const Universe& u, int dim) {
  index_t stride = 1;
  for (int i = 0; i < dim; ++i) stride *= static_cast<index_t>(u.side());
  return stride;
}

index_t slab_halo(const Universe& u) { return dim_stride(u, u.dim() - 1); }

std::uint64_t slab_grain(const Universe& u, std::uint64_t reduction_grain) {
  reduction_grain = effective_grain(reduction_grain);
  const std::uint64_t target = 8 * static_cast<std::uint64_t>(slab_halo(u));
  const std::uint64_t multiple =
      std::max<std::uint64_t>(1, (target + reduction_grain - 1) / reduction_grain);
  return reduction_grain * multiple;
}

std::uint64_t slab_count(const Universe& u, std::uint64_t reduction_grain) {
  return chunk_count(u.cell_count(), slab_grain(u, reduction_grain));
}

}  // namespace sfc
