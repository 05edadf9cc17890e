// Fused scalar references for the sfc/metrics slab kernels.
//
// These are the loops accumulate_neighbor_stats and accumulate_lambda
// replaced: dimension-major runs with one u128 add per forward neighbor pair.
// Every statistic is an exact integer, so each reference is bit-identical to
// its kernel.  tests/metrics/test_lambda_kernel.cpp checks that across every
// curve family, and bench/perf_kernels.cpp uses them as the baselines of the
// CI speedup gates.
#pragma once

#include <array>

#include "sfc/common/int128.h"
#include "sfc/grid/universe.h"
#include "sfc/metrics/neighbor_stats.h"
#include "sfc/metrics/slab_walker.h"

namespace sfc::oracles {

/// Fills `stats` for the body cells of `slab` with one fused scalar pass per
/// direction; bit-identical to sfc::accumulate_neighbor_stats.
void accumulate_neighbor_stats_reference(const Universe& u, const KeySlab& slab,
                                         SlabNeighborStats& stats);

/// Adds the slab's forward-pair distance sums Λ_i into `lambda[i]`, one u128
/// add per pair; bit-identical to sfc::accumulate_lambda.
void accumulate_lambda_reference(const Universe& u, const KeySlab& slab,
                                 std::array<u128, kMaxDim>& lambda);

}  // namespace sfc::oracles
