// The paper-measure path: Davg, Dmax and Λ (core/metrics) plus random-box
// clustering (apps/ranges), with the paper's bounds checked as invariants.
#pragma once

#include <cstdint>

#include "harness.h"
#include "sfc/curves/curve_factory.h"

namespace bench {

/// Time spent in compute_nn_stretch / compute_lambda and the cells they
/// covered, accumulated over calls.
struct MeasureTiming {
  double nn_seconds = 0.0;
  double lambda_seconds = 0.0;
  double cells = 0.0;
};

/// Computes Davg, Dmax and Λ of the curve `descriptor` names and checks:
/// Davg >= Theorem 1's bound, Dmax >= Proposition 1's bound,
/// compute_lambda == compute_nn_stretch().lambda, and for the Z curve
/// Λ_i == Lemma 5's exact value.  Each check counts as one attempt.
void measure_curve(const sfc::CurveDescriptor& descriptor, RunReport& report,
                   MeasureTiming& timing, SpanLog& spans,
                   std::uint64_t request);

/// One pass of the fixed suite: measure_curve on Hilbert, Z and Gray at 2D
/// side 2048 and 3D side 128 and on Peano at 2D side 3^7, then
/// random_box_clustering over 4096 extent-256 boxes on 2D Hilbert side
/// 65536.  Returns the pass's wall seconds.
double run_paper_suite(std::uint64_t seed, RunReport& report,
                       MeasureTiming& timing, SpanLog& spans);

}  // namespace bench
