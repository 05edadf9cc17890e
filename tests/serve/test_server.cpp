// The serving front end batches, but answers must be exactly the
// engines' answers — under any client concurrency, batch size, or window.
#include "sfc/serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/executor.h"
#include "sfc/index/point_index.h"
#include "sfc/obs/metrics.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/rng/sampling.h"

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
  for (int i = 0; i < 2500; ++i) points.push_back(random_cell(u, rng));
  PointIndex index = PointIndex::build(*curve, points);
  TraceGenOptions trace_options;
  trace_options.count = 160;
  trace_options.box_extent = 6;
  trace_options.knn_k = 5;
  trace_options.seed = seed;
  QueryTrace trace = generate_trace(u, trace_options);
  return Fixture{std::move(curve), std::move(points), std::move(index),
                 std::move(trace)};
}

/// Reference answers straight from the executors, no server involved.
void reference_answers(const Fixture& f,
                       std::vector<RangeQueryResult>* range_results,
                       std::vector<KnnQueryResult>* knn_results,
                       std::vector<std::size_t>* range_slots,
                       std::vector<std::size_t>* knn_slots) {
  std::vector<Box> boxes;
  std::vector<Point> queries;
  for (std::size_t i = 0; i < f.trace.size(); ++i) {
    const TraceQuery& q = f.trace.queries[i];
    if (q.kind == TraceQuery::Kind::kRange) {
      range_slots->push_back(i);
      boxes.push_back(q.box());
    } else {
      knn_slots->push_back(i);
      queries.push_back(q.point);
    }
  }
  *range_results = run_range_queries(f.index.view(), boxes);
  *knn_results = run_knn_queries(f.index.view(), queries, 5);
}

TEST(IndexServer, AnswersMatchDirectEnginesUnderConcurrentClients) {
  const Fixture f = make_fixture(51);
  std::vector<RangeQueryResult> range_reference;
  std::vector<KnnQueryResult> knn_reference;
  std::vector<std::size_t> range_slots, knn_slots;
  reference_answers(f, &range_reference, &knn_reference, &range_slots,
                    &knn_slots);

  for (const std::uint32_t clients : {1u, 4u, 8u}) {
    ServerOptions options;
    options.shard_bits = 3;
    options.max_batch = 16;
    options.batch_window_us = 100;
    IndexServer server(f.index.view(), options);
    const MetricsSnapshot before = MetricsRegistry::global().snapshot();

    std::vector<std::vector<std::uint32_t>> range_got(range_slots.size());
    std::vector<std::vector<KnnNeighbor>> knn_got(knn_slots.size());
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < range_slots.size(); i += clients) {
          range_got[i] =
              server.range_query(f.trace.queries[range_slots[i]].box()).ids;
        }
        for (std::size_t i = c; i < knn_slots.size(); i += clients) {
          const TraceQuery& q = f.trace.queries[knn_slots[i]];
          knn_got[i] = server.knn_query(q.point, q.k).neighbors;
        }
      });
    }
    for (std::thread& t : threads) t.join();

    for (std::size_t i = 0; i < range_slots.size(); ++i) {
      EXPECT_EQ(range_got[i], range_reference[i].ids)
          << clients << " clients, range query " << i;
    }
    for (std::size_t i = 0; i < knn_slots.size(); ++i) {
      EXPECT_EQ(knn_got[i], knn_reference[i].neighbors)
          << clients << " clients, knn query " << i;
    }

    // Drain first: executed is recorded after the futures are fulfilled.
    server.stop();
    const ServerHealth health = server.health();
    EXPECT_EQ(health.accepted, f.trace.size());
    EXPECT_EQ(health.executed, f.trace.size());
    EXPECT_GE(health.batches_dispatched, 1u);
    EXPECT_LE(health.batches_dispatched, f.trace.size());
    // The per-kind split lives in the registry, which records only while
    // observability is compiled in and switched on.
#ifndef SFC_OBS_DISABLED
    if (obs_enabled()) {
      const MetricsSnapshot after = MetricsRegistry::global().snapshot();
      EXPECT_EQ(after.value("serve.range_queries") -
                    before.value("serve.range_queries"),
                static_cast<std::int64_t>(range_slots.size()));
      EXPECT_EQ(after.value("serve.knn_queries") -
                    before.value("serve.knn_queries"),
                static_cast<std::int64_t>(knn_slots.size()));
    }
#endif
  }
}

TEST(IndexServer, BatchesFillUnderBackpressure) {
  const Fixture f = make_fixture(53);
  ServerOptions options;
  options.max_batch = 8;
  // A long window forces batches to close by filling, not by timeout.
  options.batch_window_us = 50000;
  IndexServer server(f.index.view(), options);
  std::vector<std::thread> threads;
  for (int c = 0; c < 8; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        server.knn_query(Point{7, 9}, 3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ServerHealth health = server.health();
  EXPECT_EQ(health.accepted, 80u);
  // 80 queries in batches of <= 8 means at least 10 dispatches; batching must
  // have aggregated *something* (fewer batches than queries, so some batch
  // held at least two).
  EXPECT_GE(health.batches_dispatched, 10u);
  EXPECT_LT(health.batches_dispatched, 80u);
}

TEST(IndexServer, PropagatesEngineErrorsToTheCaller) {
  const Fixture f = make_fixture(57);
  IndexServer server(f.index.view());
  // Out-of-universe kNN query: the engine throws IndexArgumentError; the
  // server must deliver it to the calling thread, not die.
  EXPECT_THROW(server.knn_query(Point{1000, 1000}, 3), Error);
  // The server still answers afterwards.
  EXPECT_EQ(server.knn_query(Point{1, 1}, 3).neighbors.size(), 3u);
}

TEST(IndexServer, StopDrainsAndRejectsLateQueries) {
  const Fixture f = make_fixture(59);
  IndexServer server(f.index.view());
  EXPECT_EQ(server.range_query(Box(Point{0, 0}, Point{63, 63})).ids.size(),
            f.index.row_count());
  server.stop();
  EXPECT_THROW(server.knn_query(Point{1, 1}, 1), Error);
  server.stop();  // idempotent
}

TEST(IndexServer, ReplayReportsConsistentTotals) {
  const Fixture f = make_fixture(61);
  std::vector<RangeQueryResult> range_reference;
  std::vector<KnnQueryResult> knn_reference;
  std::vector<std::size_t> range_slots, knn_slots;
  reference_answers(f, &range_reference, &knn_reference, &range_slots,
                    &knn_slots);
  std::uint64_t expected_rows = 0, expected_neighbors = 0;
  for (const auto& r : range_reference) expected_rows += r.ids.size();
  for (const auto& r : knn_reference) expected_neighbors += r.neighbors.size();

  for (const std::uint32_t clients : {1u, 4u}) {
    ServerOptions options;
    options.shard_bits = 2;
    IndexServer server(f.index.view(), options);
    ReplayOptions replay_options;
    replay_options.clients = clients;
    const ReplayReport report = replay_trace(server, f.trace, replay_options);
    EXPECT_EQ(report.clients, clients);
    EXPECT_EQ(report.queries, f.trace.size());
    EXPECT_EQ(report.range_queries, range_slots.size());
    EXPECT_EQ(report.knn_queries, knn_slots.size());
    // Replay answers are the reference answers (volume checksums agree).
    EXPECT_EQ(report.rows_returned, expected_rows);
    EXPECT_EQ(report.neighbors_returned, expected_neighbors);
    EXPECT_GT(report.qps, 0.0);
    EXPECT_GT(report.wall_seconds, 0.0);
    EXPECT_LE(report.p50_us, report.p99_us);
    EXPECT_LE(report.p99_us, report.max_us);
  }
}

TEST(IndexServer, EmptyTraceReplay) {
  const Fixture f = make_fixture(63);
  IndexServer server(f.index.view());
  const ReplayReport report = replay_trace(server, QueryTrace{});
  EXPECT_EQ(report.queries, 0u);
  EXPECT_EQ(report.qps, 0.0);
}

}  // namespace
}  // namespace sfc
