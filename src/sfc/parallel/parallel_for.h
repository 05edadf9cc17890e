// Deterministic chunked parallel loops and reductions.
//
// The index range [0, count) is split into fixed-size chunks whose boundaries
// depend only on `count` and the grain size — never on the thread count or
// scheduling order.  parallel_reduce stores one partial result per chunk and
// combines them sequentially in chunk order, so floating-point reductions are
// bit-identical across runs and across any number of threads.  This is the
// "deterministic chunked reduction" design choice called out in DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sfc/parallel/thread_pool.h"

namespace sfc {

/// Default chunk grain: large enough to amortize dispatch, small enough to
/// load-balance the boundary-heavy metric sweeps.
inline constexpr std::uint64_t kDefaultGrain = 1 << 16;

struct ChunkRange {
  std::uint64_t begin;
  std::uint64_t end;
  std::uint64_t chunk_index;
};

/// The grain a chunked loop actually uses: grain 0 means 1.  Every grain
/// taken by this header, and every chunk or slab grid built on it, goes
/// through here, so grain 0 and grain 1 give bit-identical results.
constexpr std::uint64_t effective_grain(std::uint64_t grain) {
  return grain == 0 ? 1 : grain;
}

/// Number of chunks the range [0, count) splits into with the given grain.
constexpr std::uint64_t chunk_count(std::uint64_t count, std::uint64_t grain) {
  grain = effective_grain(grain);
  return count == 0 ? 0 : (count + grain - 1) / grain;
}

/// Runs body(ChunkRange) over every chunk, in parallel on `pool`.
void parallel_for_chunks(ThreadPool& pool, std::uint64_t count, std::uint64_t grain,
                         const std::function<void(const ChunkRange&)>& body);

/// Convenience element-wise loop: body(i) for every i in [0, count).
void parallel_for(ThreadPool& pool, std::uint64_t count,
                  const std::function<void(std::uint64_t)>& body,
                  std::uint64_t grain = kDefaultGrain);

/// Deterministic reduction.  `map` produces the partial result of one chunk;
/// partials are combined with `combine` strictly in chunk order, starting
/// from `identity`.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(ThreadPool& pool, std::uint64_t count, std::uint64_t grain,
                  T identity, MapFn&& map, CombineFn&& combine) {
  const std::uint64_t chunks = chunk_count(count, grain);
  std::vector<T> partials(chunks, identity);
  parallel_for_chunks(pool, count, grain, [&](const ChunkRange& range) {
    partials[range.chunk_index] = map(range);
  });
  T total = identity;
  for (const T& partial : partials) total = combine(total, partial);
  return total;
}

}  // namespace sfc
