#include "sfc/parallel/parallel_for.h"

#include <algorithm>

namespace sfc {

void parallel_for_chunks(ThreadPool& pool, std::uint64_t count, std::uint64_t grain,
                         const std::function<void(const ChunkRange&)>& body) {
  if (count == 0) return;
  grain = effective_grain(grain);
  const std::uint64_t chunks = chunk_count(count, grain);
  pool.run_batch(chunks, [&](std::uint64_t chunk) {
    ChunkRange range;
    range.chunk_index = chunk;
    range.begin = chunk * grain;
    range.end = std::min(count, range.begin + grain);
    body(range);
  });
}

void parallel_for(ThreadPool& pool, std::uint64_t count,
                  const std::function<void(std::uint64_t)>& body,
                  std::uint64_t grain) {
  parallel_for_chunks(pool, count, grain, [&](const ChunkRange& range) {
    for (std::uint64_t i = range.begin; i < range.end; ++i) body(i);
  });
}

}  // namespace sfc
