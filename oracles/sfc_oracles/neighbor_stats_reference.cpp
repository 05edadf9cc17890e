#include "sfc_oracles/neighbor_stats_reference.h"

#include <cstdint>
#include <limits>

namespace sfc::oracles {

void accumulate_lambda_reference(const Universe& u, const KeySlab& slab,
                                 std::array<u128, kMaxDim>& lambda) {
  for (int i = 0; i < u.dim(); ++i) {
    const index_t stride = dim_stride(u, i);
    u128 lambda_i = 0;
    for_each_forward_run(
        u, slab.begin, slab.end, i, [&](index_t run_begin, index_t run_end) {
          const index_t* const lo = slab.keys + (run_begin - slab.buffer_begin);
          const index_t* const hi = lo + stride;
          const std::size_t count = run_end - run_begin;
          for (std::size_t j = 0; j < count; ++j) {
            const index_t a = lo[j];
            const index_t b = hi[j];
            lambda_i += a > b ? a - b : b - a;
          }
        });
    lambda[static_cast<std::size_t>(i)] += lambda_i;
  }
}

void accumulate_neighbor_stats_reference(const Universe& u, const KeySlab& slab,
                                         SlabNeighborStats& stats) {
  const std::size_t len = slab.end - slab.begin;
  stats.distance_sum.assign(len, 0);
  stats.distance_max.assign(len, 0);
  stats.distance_min.assign(len, std::numeric_limits<index_t>::max());
  stats.degree.assign(len, 0);
  stats.lambda.fill(0);

  std::uint64_t* const sum = stats.distance_sum.data();
  index_t* const dmax = stats.distance_max.data();
  index_t* const dmin = stats.distance_min.data();
  std::uint8_t* const degree = stats.degree.data();

  for (int i = 0; i < u.dim(); ++i) {
    const index_t stride = dim_stride(u, i);
    u128 lambda_i = 0;
    for_each_forward_run(
        u, slab.begin, slab.end, i, [&](index_t run_begin, index_t run_end) {
          const index_t* const lo = slab.keys + (run_begin - slab.buffer_begin);
          const index_t* const hi = lo + stride;
          const std::size_t offset = run_begin - slab.begin;
          const std::size_t count = run_end - run_begin;
          for (std::size_t j = 0; j < count; ++j) {
            const index_t a = lo[j];
            const index_t b = hi[j];
            const index_t dist = a > b ? a - b : b - a;
            sum[offset + j] += dist;
            if (dist > dmax[offset + j]) dmax[offset + j] = dist;
            if (dist < dmin[offset + j]) dmin[offset + j] = dist;
            ++degree[offset + j];
            lambda_i += dist;
          }
        });
    stats.lambda[static_cast<std::size_t>(i)] = lambda_i;

    for_each_backward_run(
        u, slab.begin, slab.end, i, [&](index_t run_begin, index_t run_end) {
          const index_t* const mid = slab.keys + (run_begin - slab.buffer_begin);
          const index_t* const lo = mid - stride;
          const std::size_t offset = run_begin - slab.begin;
          const std::size_t count = run_end - run_begin;
          for (std::size_t j = 0; j < count; ++j) {
            const index_t a = mid[j];
            const index_t b = lo[j];
            const index_t dist = a > b ? a - b : b - a;
            sum[offset + j] += dist;
            if (dist > dmax[offset + j]) dmax[offset + j] = dist;
            if (dist < dmin[offset + j]) dmin[offset + j] = dist;
            ++degree[offset + j];
          }
        });
  }
}

}  // namespace sfc::oracles
