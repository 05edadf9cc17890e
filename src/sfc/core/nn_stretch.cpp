#include "sfc/core/nn_stretch.h"

#include <limits>
#include <vector>

#include "sfc/metrics/neighbor_stats.h"
#include "sfc/metrics/slab_walker.h"
#include "sfc/parallel/parallel_for.h"

namespace sfc {

namespace {

// Per-chunk partial sums.  Chunk boundaries depend only on n and the grain,
// and partials are combined in chunk order, so the floating-point results are
// deterministic for any thread count.
struct Partial {
  long double avg_sum = 0.0L;  // Σ_α δavg(α)
  long double max_sum = 0.0L;  // Σ_α δmax(α)
  long double min_sum = 0.0L;  // Σ_α δmin(α)
  std::array<u128, kMaxDim> lambda{};
  double min_cell = std::numeric_limits<double>::infinity();
  double max_cell = -std::numeric_limits<double>::infinity();
};

// Slab sweep: each slab is batch-encoded once (plus halos); neighbor
// distances are strided buffer passes.  Per-cell results are folded into the
// *reduction* chunk grid — slab bodies are whole multiples of the grain, so
// every chunk belongs to exactly one slab and the floating-point partials
// depend only on (n, grain).
void slab_sweep(const SpaceFillingCurve& curve, std::uint64_t grain,
                ThreadPool& pool, std::vector<Partial>& partials) {
  const Universe& u = curve.universe();
  const int d = u.dim();

  for_each_key_slab(curve, pool, grain, [&](const KeySlab& slab) {
    SlabNeighborStats stats;
    accumulate_neighbor_stats(u, slab, stats);

    // Λ_i is an exact integer sum, so it can land in any partial; use the
    // slab's first chunk.
    {
      Partial& first = partials[slab.begin / grain];
      for (int i = 0; i < d; ++i) {
        first.lambda[static_cast<std::size_t>(i)] +=
            stats.lambda[static_cast<std::size_t>(i)];
      }
    }

    for (index_t chunk_begin = slab.begin; chunk_begin < slab.end;
         chunk_begin += grain) {
      Partial& part = partials[chunk_begin / grain];
      const index_t chunk_end = std::min<index_t>(slab.end, chunk_begin + grain);
      for (index_t id = chunk_begin; id < chunk_end; ++id) {
        const std::size_t j = id - slab.begin;
        const int degree = stats.degree[j];
        if (degree == 0) continue;
        const double cell_avg = static_cast<double>(stats.distance_sum[j]) /
                                static_cast<double>(degree);
        part.avg_sum += static_cast<long double>(cell_avg);
        part.max_sum += static_cast<long double>(stats.distance_max[j]);
        part.min_sum += static_cast<long double>(stats.distance_min[j]);
        if (cell_avg < part.min_cell) part.min_cell = cell_avg;
        if (cell_avg > part.max_cell) part.max_cell = cell_avg;
      }
    }
  });
}

}  // namespace

NNStretchResult compute_nn_stretch(const SpaceFillingCurve& curve,
                                   const NNStretchOptions& options) {
  const Universe& u = curve.universe();
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  const index_t n = u.cell_count();
  const int d = u.dim();

  const std::uint64_t grain = effective_grain(options.grain);
  std::vector<Partial> partials(chunk_count(n, grain));
  slab_sweep(curve, grain, pool, partials);

  NNStretchResult result;
  result.n = n;
  result.dim = d;
  result.nn_pair_count = u.nn_pair_count();

  long double avg_total = 0.0L, max_total = 0.0L, min_total = 0.0L;
  double min_cell = std::numeric_limits<double>::infinity();
  double max_cell = -std::numeric_limits<double>::infinity();
  for (const Partial& part : partials) {
    avg_total += part.avg_sum;
    max_total += part.max_sum;
    min_total += part.min_sum;
    for (int i = 0; i < d; ++i) {
      result.lambda[static_cast<std::size_t>(i)] += part.lambda[static_cast<std::size_t>(i)];
    }
    if (part.min_cell < min_cell) min_cell = part.min_cell;
    if (part.max_cell > max_cell) max_cell = part.max_cell;
  }
  for (int i = 0; i < d; ++i) {
    result.nn_distance_total += result.lambda[static_cast<std::size_t>(i)];
  }

  const auto nd = static_cast<long double>(n);
  result.average_average = static_cast<double>(avg_total / nd);
  result.average_maximum = static_cast<double>(max_total / nd);
  result.average_minimum = static_cast<double>(min_total / nd);
  result.min_cell_stretch = n > 0 ? min_cell : 0.0;
  result.max_cell_stretch = n > 0 ? max_cell : 0.0;

  const long double nn_total = to_long_double(result.nn_distance_total);
  result.lemma3_lower = static_cast<double>(nn_total / (nd * d));
  result.lemma3_upper = static_cast<double>(2.0L * nn_total / (nd * d));
  return result;
}

std::array<u128, kMaxDim> compute_lambda(const SpaceFillingCurve& curve,
                                         const NNStretchOptions& options) {
  const Universe& u = curve.universe();
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  // One partial per slab, folded in slab order.  The fold is exact integer
  // addition, so the result is independent of scheduling anyway; the ordered
  // fold keeps the determinism argument trivial.
  std::vector<std::array<u128, kMaxDim>> partials(
      slab_count(u, options.grain));
  for_each_key_slab(curve, pool, options.grain, [&](const KeySlab& slab) {
    accumulate_lambda(u, slab, partials[slab.slab_index]);
  });
  std::array<u128, kMaxDim> lambda{};
  for (const auto& part : partials) {
    for (int i = 0; i < u.dim(); ++i) {
      lambda[static_cast<std::size_t>(i)] +=
          part[static_cast<std::size_t>(i)];
    }
  }
  return lambda;
}

double cell_average_stretch(const SpaceFillingCurve& curve, const Point& cell) {
  const Universe& u = curve.universe();
  const index_t cell_key = curve.index_of(cell);
  std::uint64_t sum = 0;
  int degree = 0;
  u.for_each_neighbor(cell, [&](const Point& q) {
    const index_t qk = curve.index_of(q);
    sum += cell_key > qk ? cell_key - qk : qk - cell_key;
    ++degree;
  });
  return degree == 0 ? 0.0
                     : static_cast<double>(sum) / static_cast<double>(degree);
}

index_t cell_maximum_stretch(const SpaceFillingCurve& curve, const Point& cell) {
  const Universe& u = curve.universe();
  const index_t cell_key = curve.index_of(cell);
  index_t best = 0;
  u.for_each_neighbor(cell, [&](const Point& q) {
    const index_t qk = curve.index_of(q);
    const index_t dist = cell_key > qk ? cell_key - qk : qk - cell_key;
    if (dist > best) best = dist;
  });
  return best;
}

}  // namespace sfc
