#include "sfc/index/executor.h"

#include "sfc/parallel/parallel_for.h"

namespace sfc {

namespace {

std::uint64_t normalized_grain(const MultiQueryOptions& options) {
  return options.grain == 0 ? 16 : options.grain;
}

ThreadPool& pool_of(const MultiQueryOptions& options) {
  return options.pool != nullptr ? *options.pool : ThreadPool::shared();
}

}  // namespace

std::vector<RangeQueryResult> run_range_queries(
    const IndexColumnsView& view, std::span<const Box> boxes,
    const MultiQueryOptions& options, std::span<const KeyInterval> excluded) {
  std::vector<RangeQueryResult> results(boxes.size());
  parallel_for_chunks(
      pool_of(options), boxes.size(), normalized_grain(options),
      [&](const ChunkRange& range) {
        // One engine per chunk: the cover workspace warms up on the first
        // query and every later query in the chunk runs allocation-light.
        RangeScanEngine engine(view, excluded);
        for (std::uint64_t i = range.begin; i < range.end; ++i) {
          engine.scan(boxes[i], &results[i].ids, &results[i].stats,
                      &results[i].excluded_overlap);
        }
      });
  return results;
}

std::vector<KnnQueryResult> run_knn_queries(
    const IndexColumnsView& view, std::span<const Point> queries,
    std::uint32_t k, const MultiQueryOptions& options,
    std::span<const KeyInterval> excluded) {
  std::vector<KnnQueryResult> results(queries.size());
  parallel_for_chunks(
      pool_of(options), queries.size(), normalized_grain(options),
      [&](const ChunkRange& range) {
        KnnEngine engine(view, excluded);
        for (std::uint64_t i = range.begin; i < range.end; ++i) {
          results[i].neighbors = engine.query(queries[i], k, &results[i].stats);
        }
      });
  return results;
}

}  // namespace sfc
