// Overhead gate for the observability layer: the full serving hot path —
// admission, batch formation, engine execution — replayed
// with instrumentation enabled vs disabled (the runtime switch, the same
// thing an operator would flip).
//
// The comparison is PAIRED: every iteration runs one obs-off replay and one
// obs-on replay back-to-back, alternating which goes first, and accumulates
// both sides' accepted-query p99.  Machine drift (CPU frequency, noisy CI
// neighbors) hits both sides of a pair equally and cancels in the ratio;
// two separately-timed benchmarks would fold minutes of drift into what is
// supposed to be a few-percent effect.  The reported ratio is the MEDIAN of
// the per-pair ratios — a single scheduler hiccup spikes one pair, not the
// whole run, where a sum-based ratio would be owned by its largest outlier.
// It is exported as the `p99_ratio` counter and gated by
// tools/check_obs_overhead.py (<= 5%).
//
// Per-query span volume is what the gate prices: every accepted query
// records a queue-wait span, an engine-fact span, two histogram samples,
// and a handful of sharded counter bumps.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/obs/histogram.h"
#include "sfc/obs/metrics.h"
#include "sfc/obs/span_trace.h"
#include "sfc/rng/sampling.h"
#include "sfc/serve/server.h"
#include "sfc/serve/trace.h"

namespace {

using namespace sfc;

struct ServeFixture {
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;
  QueryTrace trace;

  static const ServeFixture& shared() {
    static const ServeFixture* fixture = new ServeFixture(make());
    return *fixture;
  }

  static ServeFixture make() {
    CurveDescriptor descriptor;
    descriptor.family = "hilbert";
    descriptor.dim = 2;
    descriptor.side = 1024;
    CurvePtr curve = make_curve(descriptor);
    const Universe& u = curve->universe();
    Xoshiro256 rng(7);
    std::vector<Point> points;
    points.reserve(50000);
    for (int i = 0; i < 50000; ++i) points.push_back(random_cell(u, rng));
    PointIndex index = PointIndex::build(*curve, points);
    TraceGenOptions options;
    options.count = 500;
    options.box_extent = 32;
    options.knn_k = 8;
    options.seed = 7;
    QueryTrace trace = generate_trace(u, options);
    return ServeFixture{std::move(curve), std::move(points), std::move(index),
                        std::move(trace)};
  }
};

double replay_p99_us(const ServeFixture& f) {
  TraceRing::global().clear();
  IndexServer server(f.index.view(), ServerOptions{});
  ReplayOptions replay_options;
  replay_options.clients = 8;
  const ReplayReport report = replay_trace(server, f.trace, replay_options);
  benchmark::DoNotOptimize(report.accepted);
  return report.p99_us;
}

void BM_ServeObsOverheadPaired(benchmark::State& state) {
  const ServeFixture& f = ServeFixture::shared();
  std::vector<double> offs;
  std::vector<double> ons;
  std::vector<double> ratios;
  bool off_first = true;
  for (auto _ : state) {
    double off = 0.0;
    double on = 0.0;
    if (off_first) {
      set_obs_enabled(false);
      off = replay_p99_us(f);
      set_obs_enabled(true);
      on = replay_p99_us(f);
    } else {
      set_obs_enabled(true);
      on = replay_p99_us(f);
      set_obs_enabled(false);
      off = replay_p99_us(f);
      set_obs_enabled(true);
    }
    off_first = !off_first;
    offs.push_back(off);
    ons.push_back(on);
    ratios.push_back(off > 0.0 ? on / off : 1.0);
    // Manual time is the instrumented side's p99 — the number an operator
    // would see in production, tracked by the perf trajectory.
    state.SetIterationTime(on * 1e-6);
  }
  set_obs_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(ons.size()) *
                          static_cast<std::int64_t>(f.trace.size()));
  state.counters["p99_off_us"] =
      benchmark::Counter(nearest_rank_percentile(offs, 0.5));
  state.counters["p99_on_us"] =
      benchmark::Counter(nearest_rank_percentile(ons, 0.5));
  state.counters["p99_ratio"] =
      benchmark::Counter(nearest_rank_percentile(ratios, 0.5));
}

BENCHMARK(BM_ServeObsOverheadPaired)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
