// Slab-streamed key materialization for the neighbor-metric engines.
//
// Every exact neighbor metric (NN stretch, partition edge cut, per-cell
// stretch distributions) evaluates π on each cell and on its 2d grid
// neighbors.  Walking the universe per cell re-encodes each cell up to 2d+1
// times; materializing a full key table costs 8n bytes.  The slab walker is
// the middle path: it traverses the canonical row-major order in contiguous
// *slabs*, batch-encodes each slab's keys exactly once through
// index_of_batch, and extends the buffer by one halo of side^{d-1} keys on
// each side — the largest neighbor stride — so every neighbor key of every
// body cell is a flat array load.  Along dimension 1 neighbors are the
// adjacent buffer entries; along dimension i they sit at fixed offset
// side^{i-1}, so the metric kernels run as strided passes over the buffer
// instead of pointer-chasing re-encodes.
//
// Memory is O(slab): slab bodies are sized at >= 8 halos (rounded to a whole
// number of reduction chunks, so deterministic chunk-ordered reductions keep
// their exact chunk grid), which bounds the halo re-encode overhead at 25%
// while keeping universes of any size streamable.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "sfc/common/types.h"
#include "sfc/curves/space_filling_curve.h"
#include "sfc/grid/universe.h"
#include "sfc/parallel/parallel_for.h"
#include "sfc/parallel/thread_pool.h"

namespace sfc {

/// One materialized slab: curve keys for every cell id in
/// [buffer_begin, buffer_end), of which [begin, end) is the body this slab
/// owns.  The buffer extends far enough past the body on both sides that
/// key_at(id ± side^i) is in range for every body cell whose neighbor along
/// dimension i+1 exists.
struct KeySlab {
  index_t begin = 0;         ///< First body cell id (row-major).
  index_t end = 0;           ///< One past the last body cell id.
  index_t buffer_begin = 0;  ///< First id with a materialized key.
  index_t buffer_end = 0;    ///< One past the last materialized id.
  const index_t* keys = nullptr;  ///< keys[id - buffer_begin] = π(id).
  std::uint64_t slab_index = 0;   ///< Position in the fixed slab grid.

  index_t key_at(index_t id) const { return keys[id - buffer_begin]; }
};

/// keys[i] = π(cell at row-major id begin + i), generated slice-by-slice
/// through index_of_batch so the Point staging buffer stays O(1).
/// Single-threaded; the parallel entry points chunk over it.
void encode_row_major_range(const SpaceFillingCurve& curve, index_t begin,
                            std::span<index_t> keys);

/// Parallel full-universe key table: keys[id] = π(id) for every cell.
/// `keys.size()` must equal the universe cell count.  This is the one shared
/// "decode row-major chunk → index_of_batch" sweep behind
/// evaluate_partition's fragment mode and compute_all_pairs_exact.
void build_key_table(const SpaceFillingCurve& curve, ThreadPool& pool,
                     std::span<index_t> keys,
                     std::uint64_t grain = kDefaultGrain);

/// Row-major stride of dimension `dim` (0-based): side^dim.  The forward
/// neighbor along that dimension of the cell with id `a` has id
/// a + dim_stride(u, dim).
index_t dim_stride(const Universe& u, int dim);

/// Halo width: the largest neighbor stride, side^{d-1} (one plane of the
/// highest dimension).
index_t slab_halo(const Universe& u);

/// Slab body length: the smallest multiple of `reduction_grain` that is at
/// least 8 halos, so halo re-encodes stay <= 25% of body encodes and slab
/// boundaries always align with the deterministic reduction chunk grid.
std::uint64_t slab_grain(const Universe& u, std::uint64_t reduction_grain);

/// Number of slabs the universe splits into at this reduction grain.
std::uint64_t slab_count(const Universe& u, std::uint64_t reduction_grain);

/// Invokes fn(run_begin, run_end) for each maximal run of consecutive ids in
/// [begin, end) whose *forward* neighbor along `dim` exists (coordinate
/// x_{dim} < side - 1).  Within a run the neighbor of id j is j + stride, so
/// callers can difference two parallel buffer spans.
template <typename Fn>
void for_each_forward_run(const Universe& u, index_t begin, index_t end,
                          int dim, Fn&& fn) {
  const index_t stride = dim_stride(u, dim);
  const index_t period = stride * static_cast<index_t>(u.side());
  const index_t valid = period - stride;  // run length inside each period
  if (valid == 0 || begin >= end) return;
  for (index_t block = (begin / period) * period; block < end;
       block += period) {
    const index_t run_begin = std::max(begin, block);
    const index_t run_end = std::min(end, block + valid);
    if (run_begin < run_end) fn(run_begin, run_end);
  }
}

/// Same for *backward* neighbors (coordinate x_{dim} > 0): the neighbor of
/// id j is j - stride.
template <typename Fn>
void for_each_backward_run(const Universe& u, index_t begin, index_t end,
                           int dim, Fn&& fn) {
  const index_t stride = dim_stride(u, dim);
  const index_t period = stride * static_cast<index_t>(u.side());
  if (period == stride || begin >= end) return;  // side == 1: no neighbors
  for (index_t block = (begin / period) * period; block < end;
       block += period) {
    const index_t run_begin = std::max(begin, block + stride);
    const index_t run_end = std::min(end, block + period);
    if (run_begin < run_end) fn(run_begin, run_end);
  }
}

/// Streams every slab of the universe through `visit(const KeySlab&)`, in
/// parallel on `pool`.  Slab bodies partition [0, n) on the fixed grid of
/// slab_grain(u, reduction_grain); each visit sees the body plus both halos
/// materialized.  Buffers live only for the duration of one visit, so peak
/// memory is O(slab) per worker regardless of universe size.
template <typename Visitor>
void for_each_key_slab(const SpaceFillingCurve& curve, ThreadPool& pool,
                       std::uint64_t reduction_grain, Visitor&& visit) {
  const Universe& u = curve.universe();
  const index_t n = u.cell_count();
  if (n == 0) return;
  const index_t halo = slab_halo(u);
  const std::uint64_t grain = slab_grain(u, reduction_grain);
  parallel_for_chunks(pool, n, grain, [&](const ChunkRange& range) {
    KeySlab slab;
    slab.begin = range.begin;
    slab.end = range.end;
    slab.buffer_begin = range.begin > halo ? range.begin - halo : 0;
    slab.buffer_end = std::min<index_t>(n, range.end + halo);
    slab.slab_index = range.chunk_index;
    std::vector<index_t> buffer(slab.buffer_end - slab.buffer_begin);
    encode_row_major_range(curve, slab.buffer_begin, buffer);
    slab.keys = buffer.data();
    visit(static_cast<const KeySlab&>(slab));
  });
}

}  // namespace sfc
