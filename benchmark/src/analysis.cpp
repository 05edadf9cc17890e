#include "analysis.h"

#include <array>
#include <string>
#include <vector>

#include "sfc/apps/range_query.h"
#include "sfc/common/int128.h"
#include "sfc/core/bounds.h"
#include "sfc/core/nn_stretch.h"
#include "sfc/grid/box.h"
#include "sfc/rng/sampling.h"
#include "sfc/rng/xoshiro256.h"

namespace bench {

namespace {

void check(RunReport& report, bool ok, const std::string& what) {
  ++report.attempted;
  if (!ok) report.fail("invariant violated: " + what);
}

}  // namespace

void measure_curve(const sfc::CurveDescriptor& descriptor, RunReport& report,
                   MeasureTiming& timing, SpanLog& spans,
                   std::uint64_t request) {
  const sfc::CurvePtr curve = sfc::make_curve(descriptor);
  const sfc::Universe& u = curve->universe();
  const std::string label = descriptor.to_string();

  const SpanLog::Scope nn_span = spans.begin("core.nn_stretch", request, 0);
  const Clock::time_point t0 = Clock::now();
  const sfc::NNStretchResult r = sfc::compute_nn_stretch(*curve);
  const Clock::time_point t1 = Clock::now();
  spans.end(nn_span, "cells", u.cell_count());
  const SpanLog::Scope lambda_span = spans.begin("core.lambda", request, 0);
  const std::array<sfc::u128, sfc::kMaxDim> lambda = sfc::compute_lambda(*curve);
  const Clock::time_point t2 = Clock::now();
  spans.end(lambda_span, "cells", u.cell_count());

  timing.nn_seconds += seconds_between(t0, t1);
  timing.lambda_seconds += seconds_between(t1, t2);
  timing.cells += static_cast<double>(u.cell_count());

  check(report, r.average_average >= sfc::bounds::davg_lower_bound(u),
        label + ": Davg >= Theorem 1 bound");
  check(report, r.average_maximum >= sfc::bounds::dmax_lower_bound(u),
        label + ": Dmax >= Proposition 1 bound");
  for (int i = 0; i < u.dim(); ++i) {
    const auto dim = static_cast<std::size_t>(i);
    check(report, lambda[dim] == r.lambda[dim],
          label + ": compute_lambda == compute_nn_stretch().lambda, dim " +
              std::to_string(i + 1));
    if (descriptor.family == "z") {
      check(report,
            r.lambda[dim] ==
                sfc::bounds::lambda_z_exact(u.dim(), u.level_bits(), i + 1),
            label + ": Λ == Lemma 5 exact value, dim " + std::to_string(i + 1));
    }
  }
}

double run_paper_suite(std::uint64_t seed, RunReport& report,
                       MeasureTiming& timing, SpanLog& spans) {
  static const std::vector<sfc::CurveDescriptor> kCurves = {
      {"hilbert", 2, 2048, 1}, {"z", 2, 2048, 1},    {"gray", 2, 2048, 1},
      {"hilbert", 3, 128, 1},  {"z", 3, 128, 1},     {"gray", 3, 128, 1},
      {"peano", 2, 2187, 1}};
  constexpr sfc::coord_t kExtent = 256;
  constexpr std::uint64_t kBoxes = 4096;
  const sfc::CurvePtr clustering_curve =
      sfc::make_curve(sfc::CurveDescriptor{"hilbert", 2, 65536, 1});

  const Clock::time_point start = Clock::now();
  for (const sfc::CurveDescriptor& descriptor : kCurves) {
    measure_curve(descriptor, report, timing, spans, 0);
  }
  sfc::ClusteringOptions options;
  options.engine = sfc::RunCountEngine::kCover;
  const SpanLog::Scope span = spans.begin("apps.clustering", 0, 0);
  const sfc::ClusteringStats stats = sfc::random_box_clustering(
      *clustering_curve, kExtent, kBoxes, seed, options);
  spans.end(span, "boxes", kBoxes);
  const double seconds = seconds_between(start, Clock::now());

  check(report, stats.samples == kBoxes && stats.mean_runs >= 1.0,
        "random_box_clustering returned every sample");
  // The cover path behind the clustering numbers must agree with exhaustive
  // enumeration of the box (untimed).
  sfc::Xoshiro256 rng(seed);
  for (int i = 0; i < 4; ++i) {
    const sfc::Box box =
        sfc::random_box(clustering_curve->universe(), kExtent, rng);
    check(report,
          sfc::count_key_runs(*clustering_curve, box,
                              sfc::RunCountEngine::kCover) ==
              sfc::count_key_runs_enumeration(*clustering_curve, box),
          "clustering number by cover == by enumeration");
  }
  return seconds;
}

}  // namespace bench
