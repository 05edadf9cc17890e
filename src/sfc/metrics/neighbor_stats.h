// Per-cell neighbor statistics over one key slab.
//
// The NN-stretch engine and the per-cell stretch distributions both need, for
// every cell α: Σ_{β∈N(α)} ∆π, max ∆π, min ∆π, and |N(α)|, plus the per-
// dimension forward-pair sums Λ_i.  This kernel computes all of them for one
// slab as 2d strided passes over the materialized key buffer — one forward
// and one backward pass per dimension, each over the maximal valid runs —
// instead of 2d key lookups per cell.  All accumulators are exact integers,
// so pass order never perturbs results.
//
// Each run is tiled through a small L1-resident diff buffer: a pure
// |keys[j+s] - keys[j]| u64 diff pass, then per-statistic update loops over
// the buffer, then a split lo32/hi32 widening reduction that folds the tile
// into the u128 Λ_i total.  Every phase is a branch-light single-type loop
// the auto-vectorizer handles; the u128 accumulation — the loop-carried
// dependency that keeps a fused scalar loop from vectorizing — happens once
// per tile instead of once per neighbor.
//
// Workloads that need only Λ — the paper's headline metric — get a leaner
// kernel, accumulate_lambda: forward runs only, no per-cell arrays.  It
// blocks over cell tiles with the dimension loop inside, so each tile of
// keys is read from memory once for all d directional passes, and runs the
// same diff-tile + widening reduction phases (compiled with runtime-
// dispatched AVX2 clones).
//
// The fused scalar loops these kernels replaced (one u128 add per neighbor
// pair) are the bit-identity oracles and CI bench baselines; they live in
// the test- and bench-only sfc_oracles library (oracles/), not here.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sfc/common/int128.h"
#include "sfc/common/types.h"
#include "sfc/grid/universe.h"
#include "sfc/metrics/slab_walker.h"

namespace sfc {

/// Per-cell accumulators for one slab body, indexed by id - slab.begin.
/// accumulate_neighbor_stats assign()s every vector, discarding prior
/// contents.
struct SlabNeighborStats {
  /// Σ over neighbors of ∆π(α,β); fits u64 because each cell has at most
  /// 2·kMaxDim neighbors at distance < n <= 2^63.
  std::vector<std::uint64_t> distance_sum;
  std::vector<index_t> distance_max;
  /// Min neighbor distance; all-ones when the cell has no neighbors.
  std::vector<index_t> distance_min;
  /// |N(α)| <= 2·kMaxDim, so one byte suffices.
  std::vector<std::uint8_t> degree;
  /// Λ_i: Σ of ∆π over the slab's forward pairs along each dimension (each
  /// unordered NN pair owned by its lower endpoint, exactly once).
  std::array<u128, kMaxDim> lambda{};
};

/// Fills `stats` for the body cells of `slab` (two-phase diff-then-reduce
/// kernel; see the header comment).
void accumulate_neighbor_stats(const Universe& u, const KeySlab& slab,
                               SlabNeighborStats& stats);

/// Λ-only pass: adds the slab's forward-pair distance sums Λ_i into
/// `lambda[i]` for every dimension.  Cell-tiled two-phase kernel (diff tile,
/// widening u128 reduction once per tile); bit-identical to the lambda field
/// accumulate_neighbor_stats produces, at a fraction of the memory traffic.
void accumulate_lambda(const Universe& u, const KeySlab& slab,
                       std::array<u128, kMaxDim>& lambda);

}  // namespace sfc
