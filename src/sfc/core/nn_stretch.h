// Nearest-neighbor stretch metrics (paper §III Definitions 1-4 and §IV).
//
// For an SFC π on universe U:
//   δavg_π(α) = (Σ_{β∈N(α)} ∆π(α,β)) / |N(α)|        (Definition 1)
//   Davg(π)   = (1/n) Σ_α δavg_π(α)                   (Definition 2)
//   δmax_π(α) = max_{β∈N(α)} ∆π(α,β)                  (Definition 3)
//   Dmax(π)   = (1/n) Σ_α δmax_π(α)                   (Definition 4)
//   Λ_i(π)    = Σ_{(α,β)∈G_i} ∆π(α,β)                 (§IV-B, unordered NN
//               pairs differing in dimension i)
//
// One engine streams the universe in row-major key slabs (sfc/metrics):
// each slab is batch-encoded once and every neighbor distance is a strided
// buffer difference, so exact metrics run in O(slab) memory with one encode
// per cell.  Λ_i accumulate as exact 128-bit integers; the per-cell averages
// use deterministic chunked long-double sums whose chunk grid depends only
// on (n, grain), so results are bit-identical across thread counts.  The
// scalar per-cell sweep the tests and benches compare against lives in the
// test- and bench-only sfc_oracles library (oracles/), not here.
#pragma once

#include <array>
#include <cstdint>

#include "sfc/common/int128.h"
#include "sfc/common/types.h"
#include "sfc/curves/space_filling_curve.h"
#include "sfc/parallel/thread_pool.h"

namespace sfc {

struct NNStretchOptions {
  /// Pool to run on; nullptr means ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Cells per deterministic reduction chunk (0 means 1).
  std::uint64_t grain = std::uint64_t{1} << 16;
};

struct NNStretchResult {
  index_t n = 0;
  int dim = 0;

  /// Davg(π): average-average NN stretch (Definition 2).
  double average_average = 0.0;
  /// Dmax(π): average-maximum NN stretch (Definition 4).
  double average_maximum = 0.0;
  /// Extension metric: average over cells of min_{β∈N(α)} ∆π(α,β) — the
  /// curve window needed to reach the *first* spatial neighbor.
  double average_minimum = 0.0;

  /// Λ_i(π) for paper dimensions i = 1..d (component i-1), exact.
  std::array<u128, kMaxDim> lambda{};
  /// Σ over all unordered NN pairs of ∆π = Σ_i Λ_i, exact.
  u128 nn_distance_total = 0;
  /// |NN_d|.
  index_t nn_pair_count = 0;

  /// Lemma 3 sandwich evaluated from the exact NN total:
  ///   lemma3_lower = Σ_NN ∆π / (n d) <= Davg <= 2 Σ_NN ∆π / (n d).
  double lemma3_lower = 0.0;
  double lemma3_upper = 0.0;

  /// Extremes of the per-cell average stretch δavg_π(α).
  double min_cell_stretch = 0.0;
  double max_cell_stretch = 0.0;
};

/// Computes every NN-stretch statistic in one parallel sweep.
NNStretchResult compute_nn_stretch(const SpaceFillingCurve& curve,
                                   const NNStretchOptions& options = {});

/// Λ-only fast path: exact Λ_i(π) for i = 1..d (component i-1) without the
/// per-cell stretch statistics.  Streams the same key slabs but runs the
/// lean cell-tiled Λ kernel (sfc/metrics accumulate_lambda) — forward runs
/// only, no per-cell arrays — so it is several times faster than a full
/// compute_nn_stretch when only the paper's Λ metric is needed.  Exact
/// integer sums: bit-identical to NNStretchResult::lambda for any pool size
/// or grain.
std::array<u128, kMaxDim> compute_lambda(const SpaceFillingCurve& curve,
                                         const NNStretchOptions& options = {});

/// δavg_π(α) for a single cell (Definition 1); used by tests and examples.
double cell_average_stretch(const SpaceFillingCurve& curve, const Point& cell);

/// δmax_π(α) for a single cell (Definition 3).
index_t cell_maximum_stretch(const SpaceFillingCurve& curve, const Point& cell);

}  // namespace sfc
