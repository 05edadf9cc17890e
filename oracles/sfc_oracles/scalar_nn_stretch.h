// Scalar NN-stretch sweep: the bit-identity oracle and CI bench baseline for
// sfc::compute_nn_stretch.
//
// One pass over all cells in row-major order with 2d+1 scalar
// curve.index_of calls per cell (the cell and each of its neighbors) — no
// key table, no batching.  It folds per-cell results into the same
// deterministic (n, grain) chunk grid as the slab engine and combines the
// chunks in the same order, so every field of the result, floating point
// included, equals compute_nn_stretch's bit for bit.
#pragma once

#include "sfc/core/nn_stretch.h"
#include "sfc/curves/space_filling_curve.h"

namespace sfc::oracles {

/// NNStretchResult of `curve` computed by the scalar per-cell sweep.
/// `options.pool` and `options.grain` mean what they mean for
/// compute_nn_stretch.
NNStretchResult scalar_nn_stretch(const SpaceFillingCurve& curve,
                                  const NNStretchOptions& options = {});

}  // namespace sfc::oracles
