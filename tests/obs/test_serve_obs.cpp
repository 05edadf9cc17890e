// End-to-end observability through the serving stack: one replay must leave
// the global registry agreeing with the server's own health counters, fill
// engine-level metrics, and mint trace spans that replay into valid Chrome
// trace JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/obs/export.h"
#include "sfc/obs/metrics.h"
#include "sfc/obs/span_trace.h"
#include "sfc/rng/sampling.h"
#include "sfc/serve/server.h"
#include "sfc/serve/trace.h"
#include "json_check.h"

namespace sfc {
namespace {

struct Fixture {
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;
  QueryTrace trace;
};

Fixture make_fixture(std::uint64_t seed) {
  CurveDescriptor descriptor;
  descriptor.family = "hilbert";
  descriptor.dim = 2;
  descriptor.side = 64;
  CurvePtr curve = make_curve(descriptor);
  const Universe u = curve->universe();
  Xoshiro256 rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < 2000; ++i) points.push_back(random_cell(u, rng));
  PointIndex index = PointIndex::build(*curve, points);
  TraceGenOptions trace_options;
  trace_options.count = 120;
  trace_options.box_extent = 6;
  trace_options.knn_k = 5;
  trace_options.seed = seed;
  QueryTrace trace = generate_trace(u, trace_options);
  return Fixture{std::move(curve), std::move(points), std::move(index),
                 std::move(trace)};
}

TEST(ServeObservability, RegistryAgreesWithServerHealth) {
  MetricsRegistry::global().reset();
  TraceRing::global().clear();
  const Fixture f = make_fixture(7);

  ServerHealth health;
  {
    IndexServer server(f.index.view(), ServerOptions{});
    ReplayOptions replay_options;
    replay_options.clients = 4;
    const ReplayReport report = replay_trace(server, f.trace, replay_options);
    EXPECT_EQ(report.accepted, f.trace.size());
    // Drain first: the dispatcher bumps health and the mirrored counters
    // after fulfilling the batch's futures, so a snapshot taken right at
    // replay return could race the final batch's accounting.
    server.stop();
    health = server.health();
  }

  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  // The mirrored counters and the server's own (mutex-guarded) health must
  // tell the same story.
  EXPECT_EQ(snapshot.value("serve.accepted"),
            static_cast<std::int64_t>(health.accepted));
  EXPECT_EQ(snapshot.value("serve.executed"),
            static_cast<std::int64_t>(health.executed));
  EXPECT_EQ(snapshot.value("serve.batches"),
            static_cast<std::int64_t>(health.batches_dispatched));
  const LatencyHistogram* queue_wait =
      snapshot.histogram("serve.queue_wait_us");
  ASSERT_NE(queue_wait, nullptr);
  // Both stores record the same per-query values, so even the nanosecond
  // sums agree exactly.
  EXPECT_EQ(queue_wait->count, health.queue_wait_latency.count);
  EXPECT_EQ(queue_wait->buckets, health.queue_wait_latency.buckets);
  EXPECT_EQ(queue_wait->sum_ns, health.queue_wait_latency.sum_ns);
  const LatencyHistogram* execute = snapshot.histogram("serve.execute_us");
  ASSERT_NE(execute, nullptr);
  EXPECT_EQ(execute->count, health.execute_latency.count);
  EXPECT_EQ(execute->buckets, health.execute_latency.buckets);
  EXPECT_EQ(execute->sum_ns, health.execute_latency.sum_ns);

  // Engine-level facts flowed from the same run: the mixed trace has both
  // query kinds, so both engines must have counted queries and work.
  EXPECT_GT(snapshot.value("index.range.queries"), 0);
  EXPECT_GT(snapshot.value("index.knn.queries"), 0);
  EXPECT_GT(snapshot.value("index.knn.certified"), 0);
  EXPECT_GT(snapshot.value("ranges.covers"), 0);
  EXPECT_GT(snapshot.value("index.builds"), 0);
  EXPECT_GT(snapshot.value("sort.sorts"), 0);
  EXPECT_EQ(snapshot.value("serve.range_queries") +
                snapshot.value("serve.knn_queries"),
            static_cast<std::int64_t>(f.trace.size()));
}

TEST(ServeObservability, SpansReplayIntoValidChromeTrace) {
  MetricsRegistry::global().reset();
  TraceRing::global().clear();
  const Fixture f = make_fixture(11);
  {
    IndexServer server(f.index.view(), ServerOptions{});
    ReplayOptions replay_options;
    replay_options.clients = 2;
    replay_trace(server, f.trace, replay_options);
  }
  const std::vector<TraceSpan> spans = TraceRing::global().snapshot();
  ASSERT_FALSE(spans.empty());

  bool saw_queue_wait = false;
  bool saw_engine = false;
  bool saw_batch = false;
  for (const TraceSpan& span : spans) {
    const std::string name = span.name;
    if (name == "queue_wait") {
      saw_queue_wait = true;
      EXPECT_GT(span.trace_id, 0u);  // minted at admission
    }
    if (name == "range" || name == "knn") saw_engine = true;
    if (name == "batch") saw_batch = true;
    EXPECT_GE(span.dur_us, 0.0);
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_batch);

  const std::string json = chrome_trace_json(spans);
  EXPECT_TRUE(sfc::testing::json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  TraceRing::global().clear();
}

TEST(ServeObservability, DisabledLeavesNoFootprint) {
  const Fixture f = make_fixture(13);
  // Reset after the fixture build: the build itself records (index, sort)
  // while obs is still enabled.
  MetricsRegistry::global().reset();
  TraceRing::global().clear();
  set_obs_enabled(false);
  {
    IndexServer server(f.index.view(), ServerOptions{});
    ReplayOptions replay_options;
    replay_options.clients = 2;
    const ReplayReport report = replay_trace(server, f.trace, replay_options);
    EXPECT_EQ(report.accepted, f.trace.size());  // serving is unaffected
  }
  set_obs_enabled(true);
  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snapshot.value("serve.accepted"), 0);
  EXPECT_EQ(snapshot.value("index.range.queries"), 0);
  EXPECT_TRUE(TraceRing::global().snapshot().empty());
}

}  // namespace
}  // namespace sfc
