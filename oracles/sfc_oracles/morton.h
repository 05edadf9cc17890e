// Second-source Morton (Z-order) encoder.
//
// A plain bit loop, written from the definition in sfc/curves/zcurve.h and
// sharing no code with it: for each level from the most significant bit
// down, append bit `level` of x1, then of x2, ..., then of xd (dimension 1
// most significant within each level).  It knows nothing of the BMI2
// pdep/pext or magic-mask kernels, so a test that compares ZCurve against it
// checks the curve against a source it does not share.
#pragma once

#include "sfc/common/types.h"
#include "sfc/grid/point.h"

namespace sfc::oracles {

/// Z(cell) on a universe of side 2^level_bits; cell.dim() * level_bits must
/// not exceed 64.
index_t morton_index_bitloop(const Point& cell, int level_bits);

}  // namespace sfc::oracles
