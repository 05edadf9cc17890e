#include "sfc_oracles/scalar_nn_stretch.h"

#include <array>
#include <limits>
#include <vector>

#include "sfc/parallel/parallel_for.h"

namespace sfc::oracles {

namespace {

// Per-chunk partial sums on compute_nn_stretch's chunk grid.
struct Partial {
  long double avg_sum = 0.0L;  // Σ_α δavg(α)
  long double max_sum = 0.0L;  // Σ_α δmax(α)
  long double min_sum = 0.0L;  // Σ_α δmin(α)
  std::array<u128, kMaxDim> lambda{};
  double min_cell = std::numeric_limits<double>::infinity();
  double max_cell = -std::numeric_limits<double>::infinity();
};

}  // namespace

NNStretchResult scalar_nn_stretch(const SpaceFillingCurve& curve,
                                  const NNStretchOptions& options) {
  const Universe& u = curve.universe();
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  const index_t n = u.cell_count();
  const int d = u.dim();
  const index_t side = u.side();

  std::vector<Partial> partials(chunk_count(n, options.grain));
  parallel_for_chunks(pool, n, options.grain, [&](const ChunkRange& range) {
    Partial& part = partials[range.chunk_index];
    Point cell = u.from_row_major(range.begin);
    for (index_t id = range.begin; id < range.end; ++id) {
      const index_t cell_key = curve.index_of(cell);

      std::uint64_t dist_sum = 0;
      index_t dist_max = 0;
      index_t dist_min = std::numeric_limits<index_t>::max();
      int degree = 0;
      const auto visit = [&](const Point& q) {
        const index_t qk = curve.index_of(q);
        const index_t dist = cell_key > qk ? cell_key - qk : qk - cell_key;
        dist_sum += dist;
        if (dist > dist_max) dist_max = dist;
        if (dist < dist_min) dist_min = dist;
        ++degree;
        return dist;
      };

      for (int i = 0; i < d; ++i) {
        if (cell[i] > 0) {
          Point q = cell;
          --q[i];
          visit(q);
        }
        // The forward neighbor owns the unordered pair for Λ_i.
        if (cell[i] + 1 < side) {
          Point q = cell;
          ++q[i];
          part.lambda[static_cast<std::size_t>(i)] += visit(q);
        }
      }

      if (degree > 0) {
        const double cell_avg =
            static_cast<double>(dist_sum) / static_cast<double>(degree);
        part.avg_sum += static_cast<long double>(cell_avg);
        part.max_sum += static_cast<long double>(dist_max);
        part.min_sum += static_cast<long double>(dist_min);
        if (cell_avg < part.min_cell) part.min_cell = cell_avg;
        if (cell_avg > part.max_cell) part.max_cell = cell_avg;
      }

      // Advance the cell coordinates in row-major order.
      for (int i = 0; i < d; ++i) {
        if (++cell[i] < side) break;
        cell[i] = 0;
      }
    }
  });

  // The fold below repeats compute_nn_stretch's, operation for operation:
  // the floating-point fields are only bit-identical if it does.
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
      result.lambda[static_cast<std::size_t>(i)] +=
          part.lambda[static_cast<std::size_t>(i)];
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

}  // namespace sfc::oracles
