// The workload runner.  Every workload serves an index through IndexServer
// and runs one batch job; what differs is the dataset, the query mix, the
// server configuration and the batch job (workloads() below says why each
// exists).
//
// Untraced run:  set-up -> reference answers -> brute-force spot checks
//   -> warm-up -> kRounds x (set-up, batch job, closed loop, open loop),
//   each metric the median over rounds.
// Traced run:    the same set-up, checks and warm-up -> set-up x3 -> open
//   loop untraced -> open loop with a span per request -> a sequential pass
//   that times each layer's public function on the first queries.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "analysis.h"
#include "sfc/apps/range_query.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/grid/box.h"
#include "sfc/index/executor.h"
#include "sfc/index/knn.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/obs/metrics.h"
#include "sfc/parallel/thread_pool.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/rng/sampling.h"
#include "sfc/rng/xoshiro256.h"
#include "sfc/serve/generation.h"
#include "sfc/serve/server.h"
#include "sfc/sort/radix_sort.h"
#include "sfc/store/index_store.h"
#include "workloads.h"

namespace bench {

const std::vector<WorkloadSpec>& workloads() {
  // Open-loop rates are absolute and fixed here, at 25-30% of the
  // closed-loop capacity measured when the benchmark was written, so later
  // (faster or slower) code faces the same offered load.  Each client blocks
  // on its call, so a higher share mostly measures clients queueing behind
  // their own previous query.
  static const std::vector<WorkloadSpec> kWorkloads = {
      // The deployed default, 16 shards: per-query engine work is small, so
      // shard fan-out and batching dominate.
      {"serve-mixed", "hilbert", 2, 1024, DataShape::kUniform, 1'000'000, 0, 0.0, 0.0,
       50, 32, 32, 8, 32,
       4, 4, 1500.0, false, BatchJob::kQueries, 1024, 0.1, 0.25, 0.65},
      // Sparse data, big boxes, 1 shard: cover descent and directory resolve
      // dominate, and <= 4-query batches fall under the executor's grain.
      {"serve-range-sparse", "hilbert", 2, 65536, DataShape::kUniform, 1'000'000, 0, 0.0, 0.0,
       100, 512, 2048, 8, 0,
       0, 4, 600.0, false, BatchJob::kQueries, 256, 0.1, 0.25, 0.65},
      // Skewed 3D data, kNN only, beside a writer that rewrites and reloads
      // the served file.
      {"serve-knn-reload", "hilbert", 3, 256, DataShape::kClusters, 1'000'000, 32, 4.0, 0.05,
       0, 0, 0, 32, 8,
       0, 3, 1800.0, true, BatchJob::kQueries, 512, 0.1, 0.25, 0.65},
      // The paper's measures as the batch job; served requests are Z-curve
      // clustering numbers over sparse data, so the cover is the work.
      {"paper-metrics", "z", 2, 65536, DataShape::kUniform, 1 << 18, 0, 0.0, 0.0,
       100, 256, 256, 8, 0,
       0, 4, 1500.0, false, BatchJob::kPaperSuite, 0, 0.6, 0.15, 0.25},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

using sfc::Box;
using sfc::coord_t;
using sfc::Point;

constexpr std::size_t kPoolSize = 8192;     ///< distinct queries per run
constexpr std::uint64_t kWarmupQueries = 2000;
constexpr std::size_t kBruteChecks = 100;   ///< queries checked by brute force
constexpr std::size_t kLayerPassQueries = 2000;
constexpr int kSetupRepetitions = 3;  ///< set-ups per traced run
constexpr int kRounds = 6;             ///< measurement rounds per run

/// Results of timed calls land here so none can be optimised away.
volatile std::uint64_t g_sink = 0;

struct Query {
  bool range = true;
  Point lo, hi;  ///< range box corners
  Point point;   ///< kNN query point
  Box box() const { return Box(lo, hi); }
};

struct Inputs {
  sfc::CurveDescriptor descriptor;
  sfc::CurvePtr curve;
  std::vector<Point> points;
  std::vector<Point> centres;
  std::vector<Query> queries;
};

Point gaussian_cell(const Point& centre, double sigma, coord_t side,
                    sfc::Xoshiro256& rng) {
  Point p = Point::zero(centre.dim());
  for (int d = 0; d < centre.dim(); ++d) {
    const double u1 = std::max(rng.next_double(), 1e-300);
    const double u2 = rng.next_double();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double v = std::round(static_cast<double>(centre[d]) + sigma * z);
    p[d] = static_cast<coord_t>(std::clamp(v, 0.0, static_cast<double>(side - 1)));
  }
  return p;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.descriptor = sfc::CurveDescriptor{spec.family, spec.dim, spec.side, 1};
  in.curve = sfc::make_curve(in.descriptor);
  const sfc::Universe& u = in.curve->universe();

  sfc::Xoshiro256 data_rng(stream_seed(seed, 1));
  in.points.reserve(spec.points);
  if (spec.data == DataShape::kUniform) {
    for (std::uint64_t i = 0; i < spec.points; ++i) {
      in.points.push_back(sfc::random_cell(u, data_rng));
    }
  } else {
    const auto margin = static_cast<coord_t>(std::ceil(4.0 * spec.sigma));
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      Point centre = Point::zero(spec.dim);
      for (int d = 0; d < spec.dim; ++d) {
        centre[d] = margin + static_cast<coord_t>(
                                 data_rng.next_below(spec.side - 2 * margin));
      }
      in.centres.push_back(centre);
    }
    for (std::uint64_t i = 0; i < spec.points; ++i) {
      if (data_rng.next_double() < spec.background) {
        in.points.push_back(sfc::random_cell(u, data_rng));
      } else {
        const Point& centre = in.centres[data_rng.next_below(spec.clusters)];
        in.points.push_back(gaussian_cell(centre, spec.sigma, spec.side, data_rng));
      }
    }
  }

  sfc::Xoshiro256 query_rng(stream_seed(seed, 2));
  in.queries.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    Query q;
    q.range = query_rng.next_below(100) < spec.range_percent;
    if (q.range) {
      const auto extent = static_cast<coord_t>(
          spec.extent_min +
          query_rng.next_below(spec.extent_max - spec.extent_min + 1));
      q.lo = Point::zero(spec.dim);
      q.hi = Point::zero(spec.dim);
      for (int d = 0; d < spec.dim; ++d) {
        q.lo[d] = static_cast<coord_t>(query_rng.next_below(spec.side - extent + 1));
        q.hi[d] = q.lo[d] + extent - 1;
      }
    } else if (!in.centres.empty() && query_rng.next_below(2) == 0) {
      // Near a cluster centre: dense, short frontier.
      const Point& centre = in.centres[query_rng.next_below(in.centres.size())];
      q.point = gaussian_cell(centre, spec.sigma, spec.side, query_rng);
    } else {
      // Uniform: on clustered data mostly far from it, a wide frontier.
      q.point = sfc::random_cell(u, query_rng);
    }
    in.queries.push_back(q);
  }
  return in;
}

/// The box a traced probe covers for a kNN query, and the kNN probe point
/// for a range query, so every layer is timed on every workload.
Box probe_box(const Query& q, const WorkloadSpec& spec) {
  if (q.range) return q.box();
  const coord_t extent = spec.probe_extent;
  Point lo = Point::zero(spec.dim);
  Point hi = Point::zero(spec.dim);
  for (int d = 0; d < spec.dim; ++d) {
    const coord_t half = extent / 2;
    lo[d] = std::min<coord_t>(q.point[d] > half ? q.point[d] - half : 0,
                              spec.side - extent);
    hi[d] = lo[d] + extent - 1;
  }
  return Box(lo, hi);
}

Point probe_point(const Query& q) {
  if (!q.range) return q.point;
  Point p = Point::zero(q.lo.dim());
  for (int d = 0; d < q.lo.dim(); ++d) p[d] = q.lo[d] + (q.hi[d] - q.lo[d]) / 2;
  return p;
}

/// Answers `indices` of the pool through the multi-query executors on
/// `view`-like storage; result[i] is the hash of queries[indices[i]].
template <typename Storage>
std::vector<std::uint64_t> execute_hashes(const Storage& storage,
                                          const std::vector<Query>& queries,
                                          std::span<const std::size_t> indices,
                                          std::uint32_t k) {
  std::vector<Box> boxes;
  std::vector<Point> points;
  std::vector<std::size_t> range_at, knn_at;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const Query& q = queries[indices[i]];
    if (q.range) {
      boxes.push_back(q.box());
      range_at.push_back(i);
    } else {
      points.push_back(q.point);
      knn_at.push_back(i);
    }
  }
  std::vector<std::uint64_t> hashes(indices.size());
  if (!boxes.empty()) {
    const auto results = sfc::run_range_queries(storage, boxes);
    for (std::size_t j = 0; j < results.size(); ++j) {
      hashes[range_at[j]] = answer_hash(results[j]);
    }
  }
  if (!points.empty()) {
    const auto results = sfc::run_knn_queries(storage, points, k);
    for (std::size_t j = 0; j < results.size(); ++j) {
      hashes[knn_at[j]] = answer_hash(results[j]);
    }
  }
  return hashes;
}

std::vector<std::size_t> iota_indices(std::size_t first, std::size_t count,
                                      std::size_t modulo) {
  std::vector<std::size_t> indices(count);
  for (std::size_t i = 0; i < count; ++i) indices[i] = (first + i) % modulo;
  return indices;
}

/// Brute force for a sample of the pool: a full row scan for range queries
/// (plus cell enumeration for the run count when the box is small enough),
/// and a scan of every dataset point for kNN, ordered by (squared distance,
/// curve key, id) as the engines order ties.
void brute_force_check(const WorkloadSpec& spec, const Inputs& in,
                       const sfc::IndexColumnsView& view,
                       const std::vector<std::uint64_t>& reference,
                       std::uint64_t seed, RunReport& report) {
  sfc::Xoshiro256 rng(stream_seed(seed, 3));
  std::vector<std::size_t> sample(kBruteChecks);
  for (std::size_t& s : sample) s = rng.next_below(in.queries.size());

  std::vector<sfc::index_t> keys;
  if (spec.range_percent < 100) {
    keys.resize(in.points.size());
    in.curve->index_of_batch(in.points, keys);
  }
  std::vector<std::uint64_t> brute(sample.size());
  sfc::ThreadPool::shared().run_batch(sample.size(), [&](std::uint64_t i) {
    const Query& q = in.queries[sample[i]];
    if (q.range) {
      sfc::RangeQueryResult result;
      const Box box = q.box();
      result.ids = sfc::range_scan_full(view, box);
      result.stats.runs_in_cover =
          box.cell_count() <= (sfc::index_t{1} << 16)
              ? sfc::count_key_runs_enumeration(*in.curve, box)
              : sfc::count_key_runs(*in.curve, box);
      brute[i] = answer_hash(result);
      return;
    }
    struct Candidate {
      std::uint64_t sq;
      sfc::index_t key;
      std::uint32_t id;
      bool operator<(const Candidate& o) const {
        return sq != o.sq ? sq < o.sq : key != o.key ? key < o.key : id < o.id;
      }
    };
    std::vector<Candidate> heap;  // max-heap of the best k
    for (std::size_t id = 0; id < in.points.size(); ++id) {
      const Candidate c{squared_euclidean_distance(in.points[id], q.point),
                        keys[id], static_cast<std::uint32_t>(id)};
      if (heap.size() < spec.k) {
        heap.push_back(c);
        std::push_heap(heap.begin(), heap.end());
      } else if (c < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = c;
        std::push_heap(heap.begin(), heap.end());
      }
    }
    std::sort_heap(heap.begin(), heap.end());
    sfc::KnnQueryResult result;
    for (const Candidate& c : heap) result.neighbors.push_back({c.id, c.key, c.sq});
    brute[i] = answer_hash(result);
  });
  for (std::size_t i = 0; i < sample.size(); ++i) {
    ++report.attempted;
    if (brute[i] != reference[sample[i]]) {
      report.fail("brute force disagrees with the reference on query " +
                  std::to_string(sample[i]));
    }
  }
}

/// Per-thread outcome of a load phase, merged into the report afterwards.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t answered = 0;
  std::vector<std::string> failures;
  std::vector<double> latency_us;  ///< due -> answer (open loop)
  std::vector<double> lag_us;      ///< due -> sent (open loop)
  std::vector<double> call_us;     ///< sent -> answer

  void merge_into(RunReport& report) const {
    report.attempted += attempted;
    for (const std::string& f : failures) report.fail(f);
    report.failed += failed - failures.size();
  }
};

/// What a load thread needs to issue and check one query.
struct ServeContext {
  sfc::IndexServer& server;
  const std::vector<Query>& queries;
  const std::vector<std::uint64_t>& reference;
  std::uint32_t k;

  void issue(std::size_t qi, Tally& tally) const {
    ++tally.attempted;
    const Query& q = queries[qi];
    try {
      const std::uint64_t h = q.range ? answer_hash(server.range_query(q.box()))
                                      : answer_hash(server.knn_query(q.point, k));
      if (h == reference[qi]) {
        ++tally.answered;
        return;
      }
      record_failure(tally, "wrong answer for query " + std::to_string(qi));
    } catch (const std::exception& e) {
      record_failure(tally, e.what());
    }
  }

  static void record_failure(Tally& tally, std::string message) {
    ++tally.failed;
    if (tally.failures.size() < 4) tally.failures.push_back(std::move(message));
  }
};

/// Closed loop: `clients` threads each send their next query when the last
/// one is answered, until `max_queries` have been sent or `seconds` passed.
/// Returns answered queries per wall-clock second.
double closed_loop(const ServeContext& ctx, std::uint32_t clients,
                   std::uint64_t max_queries, double seconds,
                   std::size_t offset, RunReport& report) {
  std::vector<Tally> tallies(clients);
  std::atomic<std::uint64_t> next{0};
  std::latch ready(clients + 1);
  Clock::time_point start;
  std::atomic<bool> go{false};
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.arrive_and_wait();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point deadline = start + budget;
      while (true) {
        const std::uint64_t j = next.fetch_add(1);
        if (j >= max_queries || Clock::now() >= deadline) break;
        ctx.issue((offset + j) % ctx.queries.size(), tallies[c]);
      }
    });
  }
  ready.arrive_and_wait();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double elapsed = seconds_between(start, Clock::now());
  std::uint64_t answered = 0;
  for (const Tally& t : tallies) {
    t.merge_into(report);
    answered += t.answered;
  }
  return static_cast<double>(answered) / elapsed;
}

/// Open loop: each of `clients` threads follows its own Poisson arrival
/// schedule (rate / clients), sending each query when it is due or, if the
/// previous answer is late, as soon as that arrives.  Latency runs from the
/// due time, so a stall also charges the queries queued behind it.
Tally open_loop(const ServeContext& ctx, std::uint32_t clients, double rate,
                double seconds, std::uint64_t seed, std::size_t offset,
                SpanLog& spans, RunReport& report) {
  std::vector<std::vector<double>> due_s(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    sfc::Xoshiro256 rng(stream_seed(seed, 100 + c));
    const double per_client = rate / clients;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.next_double()) / per_client;
      if (t > seconds) break;
      due_s[c].push_back(t);
    }
  }
  std::vector<Tally> tallies(clients);
  std::latch ready(clients + 1);
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Wake-ups within ~1 us of the due time instead of the default 50 us
      // timer slack, so the generator's own lateness stays small.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Tally& tally = tallies[c];
      tally.latency_us.reserve(due_s[c].size());
      ready.arrive_and_wait();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t j = 0; j < due_s[c].size(); ++j) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s[c][j]));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        const std::uint64_t req = spans.next_request();
        const std::uint64_t failed_before = tally.failed;
        const Clock::time_point sent = Clock::now();
        ctx.issue((offset + c + clients * j) % ctx.queries.size(), tally);
        const Clock::time_point done = Clock::now();
        spans.record("request", req, 0, sent, done);
        if (tally.failed != failed_before) continue;
        tally.latency_us.push_back(us_between(due, done));
        tally.lag_us.push_back(us_between(due, sent));
        tally.call_us.push_back(us_between(sent, done));
      }
    });
  }
  ready.arrive_and_wait();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  Tally all;
  for (const Tally& t : tallies) {
    t.merge_into(report);
    all.latency_us.insert(all.latency_us.end(), t.latency_us.begin(), t.latency_us.end());
    all.lag_us.insert(all.lag_us.end(), t.lag_us.begin(), t.lag_us.end());
    all.call_us.insert(all.call_us.end(), t.call_us.begin(), t.call_us.end());
  }
  return all;
}

/// What the writer of a reload workload rewrites: the same dataset, over
/// the served path.
struct ReloadTarget {
  const sfc::PointIndex& index;
  const sfc::CurveDescriptor& descriptor;
  const std::string& path;
};

/// Runs `phase` while, for a reload workload, a writer thread rewrites the
/// served file and reloads the server once as the phase starts: every
/// open-loop phase then includes one write, one verified open and one swap.
template <typename Phase>
auto beside_reload(const ServeContext& ctx, const ReloadTarget* reload,
                   std::vector<double>& reload_ms, RunReport& report,
                   Phase&& phase) {
  Tally writer_tally;
  std::jthread writer;
  if (reload != nullptr) {
    writer = std::jthread([&] {
      ++writer_tally.attempted;
      try {
        sfc::write_index_file(reload->path, reload->index, reload->descriptor);
        const Clock::time_point t0 = Clock::now();
        ctx.server.reload(reload->path);
        reload_ms.push_back(us_between(t0, Clock::now()) / 1000.0);
      } catch (const std::exception& e) {
        ServeContext::record_failure(writer_tally, std::string("reload: ") + e.what());
      }
    });
  }
  auto result = phase();
  if (writer.joinable()) writer.join();
  writer_tally.merge_into(report);
  return result;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string definition_json(const WorkloadSpec& spec, const RunOptions& options,
                            const sfc::ServerOptions& server) {
  JsonObject data;
  data.text("shape", spec.data == DataShape::kUniform ? "uniform" : "clusters")
      .integer("points", spec.points);
  if (spec.data == DataShape::kClusters) {
    data.integer("clusters", spec.clusters)
        .number("sigma_cells", spec.sigma)
        .number("background_share", spec.background);
  }
  JsonObject queries;
  queries.integer("pool", kPoolSize)
      .integer("range_percent", spec.range_percent)
      .integer("extent_min", spec.extent_min)
      .integer("extent_max", spec.extent_max)
      .integer("knn_k", spec.k)
      .integer("probe_extent", spec.probe_extent)
      .integer("warmup", kWarmupQueries)
      .integer("brute_force_checks", kBruteChecks)
      .integer("layer_pass_queries", kLayerPassQueries);
  JsonObject server_json;
  server_json.integer("shard_bits", static_cast<std::uint64_t>(server.shard_bits))
      .integer("max_batch", server.max_batch)
      .integer("batch_window_us", server.batch_window_us)
      .integer("max_queue", server.max_queue)
      .integer("deadline_us", server.deadline_us)
      .integer("grain", server.grain);
  JsonObject load;
  load.integer("clients", spec.clients)
      .number("open_rate_qps", spec.open_rate_qps)
      .raw("reload_each_phase", spec.reload ? "true" : "false")
      .integer("rounds", kRounds)
      .text("batch_job", spec.batch == BatchJob::kQueries ? "queries" : "paper-suite")
      .integer("batch_queries", spec.batch_queries)
      .number("batch_share", spec.batch_share)
      .number("closed_share", spec.closed_share)
      .number("open_share", spec.open_share);
  return JsonObject()
      .text("workload", spec.name)
      .integer("seed", options.seed)
      .number("seconds", options.seconds)
      .raw("trace", options.trace ? "true" : "false")
      .raw("self_check", options.self_check ? "true" : "false")
      .text("curve", sfc::CurveDescriptor{spec.family, spec.dim, spec.side, 1}.to_string())
      .raw("data", data.str())
      .raw("queries", queries.str())
      .raw("server", server_json.str())
      .raw("load", load.str())
      .integer("setup_repetitions", options.trace ? kSetupRepetitions : kRounds)
      .integer("nproc", std::thread::hardware_concurrency())
      .text("compiler", SFC_BENCH_COMPILER)
      .raw("obs_enabled", sfc::obs_enabled() ? "true" : "false")
      .str();
}

/// The traced per-layer pass: calls each layer's public function in turn
/// for the first queries of the pool, one `request` span per query with a
/// child span per call.
void layer_pass(const WorkloadSpec& spec, const Inputs& in,
                const sfc::IndexGeneration& generation, RunReport& report,
                SpanLog& spans) {
  const sfc::ShardedIndex& sharded = generation.sharded();
  const sfc::IndexColumnsView& view = sharded.base();
  const sfc::SpaceFillingCurve& curve = view.curve();
  const sfc::RangeCoverEngine cover_engine(curve);
  sfc::CoverWorkspace ws;
  sfc::RangeScanEngine scan_engine(view);
  sfc::KnnEngine knn_engine(view);

  std::vector<double> cover_us, resolve_us, scan_us, knn_us;
  std::vector<double> fanout_sharded_us, fanout_base_us;
  double runs = 0, runs_touched = 0, nodes = 0, knn_rows = 0, knn_found = 0,
         knn_expanded = 0;
  std::uint64_t sink = 0;
  std::vector<sfc::KeyInterval> intervals;
  std::vector<std::uint32_t> ids;
  std::vector<Box> range_queries;
  std::vector<Point> knn_queries;

  const std::size_t count = std::min(kLayerPassQueries, in.queries.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Query& q = in.queries[i];
    const Box box = probe_box(q, spec);
    const Point point = probe_point(q);
    const std::uint64_t request = spans.next_request();
    // Untimed first touch, so every timed call below sees warm data
    // whatever its place in the order.
    scan_engine.scan(box, &ids);
    sink += knn_engine.query(point, spec.k).size();
    const SpanLog::Scope root = spans.begin("request", request, 0);

    SpanLog::Scope span = spans.begin("ranges.cover", request, root.id);
    sfc::CoverStats cover_stats;
    Clock::time_point t0 = Clock::now();
    const std::span<const sfc::KeyInterval> cover =
        cover_engine.cover(box, ws, &cover_stats);
    Clock::time_point t1 = Clock::now();
    spans.end(span, "runs", cover.size());
    intervals.assign(cover.begin(), cover.end());

    span = spans.begin("index.resolve", request, root.id);
    std::uint64_t touched = 0;
    const Clock::time_point t2 = Clock::now();
    for (const sfc::KeyInterval& iv : intervals) {
      const auto [first, last] = view.rows_in_interval(iv.lo, iv.hi);
      touched += first < last ? 1 : 0;
      sink += last;
    }
    const Clock::time_point t3 = Clock::now();
    spans.end(span, "runs_touched", touched);

    span = spans.begin("index.range_scan", request, root.id);
    sfc::RangeScanStats scan_stats;
    const Clock::time_point t4 = Clock::now();
    scan_engine.scan(box, &ids, &scan_stats);
    const Clock::time_point t5 = Clock::now();
    spans.end(span, "rows", ids.size());

    span = spans.begin("index.knn", request, root.id);
    sfc::KnnStats knn_stats;
    const Clock::time_point t6 = Clock::now();
    const auto neighbors = knn_engine.query(point, spec.k, &knn_stats);
    const Clock::time_point t7 = Clock::now();
    spans.end(span, "rows_scanned", knn_stats.rows_scanned);

    cover_us.push_back(us_between(t0, t1));
    resolve_us.push_back(us_between(t2, t3));
    scan_us.push_back(us_between(t4, t5));
    knn_us.push_back(us_between(t6, t7));
    runs += static_cast<double>(intervals.size());
    runs_touched += static_cast<double>(touched);
    nodes += static_cast<double>(cover_stats.nodes_visited);
    knn_rows += static_cast<double>(knn_stats.rows_scanned);
    knn_found += static_cast<double>(neighbors.size());
    knn_expanded += static_cast<double>(knn_stats.nodes_expanded);

    // Fan-out: the workload's own query through the sharded executor the
    // server dispatches to, and through the same executor on the base view.
    span = spans.begin("serve.fanout", request, root.id);
    if (q.range) {
      range_queries.push_back(box);
      const std::span<const Box> one(&range_queries.back(), 1);
      t0 = Clock::now();
      sink += sfc::run_range_queries(sharded, one).front().ids.size();
      t1 = Clock::now();
      sink += sfc::run_range_queries(view, one).front().ids.size();
      fanout_base_us.push_back(us_between(t1, Clock::now()));
    } else {
      knn_queries.push_back(point);
      const std::span<const Point> one(&knn_queries.back(), 1);
      t0 = Clock::now();
      sink += sfc::run_knn_queries(sharded, one, spec.k).front().neighbors.size();
      t1 = Clock::now();
      sink += sfc::run_knn_queries(view, one, spec.k).front().neighbors.size();
      fanout_base_us.push_back(us_between(t1, Clock::now()));
    }
    fanout_sharded_us.push_back(us_between(t0, t1));
    spans.end(span);
    spans.end(root);
  }

  // Executor batches of 4 and 64 of the same queries on the base view.
  double exec_us[2] = {0, 0};
  const std::size_t sizes[2] = {4, 64};
  for (int s = 0; s < 2; ++s) {
    const std::size_t n = sizes[s];
    const SpanLog::Scope span =
        spans.begin(s == 0 ? "index.exec_batch4" : "index.exec_batch64", 0, 0);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < range_queries.size(); i += n) {
      const std::size_t m = std::min(n, range_queries.size() - i);
      sink += sfc::run_range_queries(view, std::span(range_queries).subspan(i, m)).size();
    }
    for (std::size_t i = 0; i < knn_queries.size(); i += n) {
      const std::size_t m = std::min(n, knn_queries.size() - i);
      sink += sfc::run_knn_queries(view, std::span(knn_queries).subspan(i, m), spec.k).size();
    }
    exec_us[s] = us_between(t0, Clock::now()) / static_cast<double>(count);
    spans.end(span, "queries", count);
  }

  // Encode and sort over the dataset.
  std::vector<sfc::index_t> keys(1024);
  SpanLog::Scope span = spans.begin("curves.encode", 0, 0);
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < in.points.size(); i += keys.size()) {
    const std::size_t m = std::min(keys.size(), in.points.size() - i);
    in.curve->index_of_batch(std::span(in.points).subspan(i, m),
                             std::span(keys).first(m));
    sink += keys[0];
  }
  const double encode_ns = us_between(t0, Clock::now()) * 1000.0 /
                           static_cast<double>(in.points.size());
  spans.end(span, "points", in.points.size());
  span = spans.begin("sort.key_columns", 0, 0);
  t0 = Clock::now();
  sink += sfc::sort_curve_key_columns(*in.curve, in.points).keys.size();
  const double sort_ms = us_between(t0, Clock::now()) / 1000.0;
  spans.end(span, "points", in.points.size());

  g_sink = g_sink + sink;
  report.add("serve.fanout_p50_us", median(fanout_sharded_us) - median(fanout_base_us), "us");
  report.add("index.range_scan_p50_us", percentile(scan_us, 0.5), "us");
  report.add("index.range_scan_p99_us", percentile(scan_us, 0.99), "us");
  report.add("index.resolve_p50_us", median(resolve_us), "us");
  report.add("index.runs_touched_frac", runs_touched / std::max(runs, 1.0), "ratio");
  report.add("index.knn_p50_us", percentile(knn_us, 0.5), "us");
  report.add("index.knn_p99_us", percentile(knn_us, 0.99), "us");
  report.add("index.knn_rows_per_neighbor", knn_rows / std::max(knn_found, 1.0), "ratio");
  report.add("index.knn_nodes_expanded_mean", knn_expanded / static_cast<double>(count), "count");
  report.add("index.exec_batch4_us_per_query", exec_us[0], "us");
  report.add("index.exec_batch64_us_per_query", exec_us[1], "us");
  report.add("ranges.cover_p50_us", percentile(cover_us, 0.5), "us");
  report.add("ranges.cover_p99_us", percentile(cover_us, 0.99), "us");
  report.add("ranges.runs_per_box_mean", runs / static_cast<double>(count), "count");
  report.add("ranges.nodes_per_run", nodes / std::max(runs, 1.0), "ratio");
  report.add("curves.encode_ns_per_point", encode_ns, "ns");
  report.add("sort.key_columns_ms", sort_ms, "ms");
}

/// serve.reload_ms, serve.generation_open_ms and the store probes: three
/// quiet rounds of write -> verified open -> generation open -> reload.
void store_pass(const WorkloadSpec& spec, const sfc::PointIndex& index,
                const sfc::CurveDescriptor& descriptor, sfc::IndexServer& server,
                const std::string& served_path, const std::string& probe_path,
                std::vector<double> reload_ms, RunReport& report,
                SpanLog& spans) {
  std::vector<double> write_ms, open_ms, generation_ms;
  double bytes_per_row = 0.0;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    SpanLog::Scope span = spans.begin("store.write", 0, 0);
    Clock::time_point t0 = Clock::now();
    sfc::write_index_file(probe_path, index, descriptor);
    write_ms.push_back(us_between(t0, Clock::now()) / 1000.0);
    spans.end(span);
    span = spans.begin("store.open_verified", 0, 0);
    t0 = Clock::now();
    {
      const sfc::MappedIndex mapped = sfc::MappedIndex::open(probe_path);
      open_ms.push_back(us_between(t0, Clock::now()) / 1000.0);
      bytes_per_row = static_cast<double>(mapped.file_bytes()) /
                      static_cast<double>(std::max<std::uint64_t>(mapped.row_count(), 1));
    }
    spans.end(span);
    span = spans.begin("serve.generation_open", 0, 0);
    t0 = Clock::now();
    {
      const auto generation =
          sfc::IndexGeneration::open(probe_path, spec.shard_bits, 1, false);
      generation_ms.push_back(us_between(t0, Clock::now()) / 1000.0);
    }
    spans.end(span);
    span = spans.begin("serve.reload", 0, 0);
    t0 = Clock::now();
    server.reload(served_path);
    reload_ms.push_back(us_between(t0, Clock::now()) / 1000.0);
    spans.end(span);
  }
  std::filesystem::remove(probe_path);
  report.add("serve.reload_ms", median(reload_ms), "ms");
  report.add("serve.generation_open_ms", median(generation_ms), "ms");
  report.add("store.write_ms", median(write_ms), "ms");
  report.add("store.open_verified_ms", median(open_ms), "ms");
  report.add("store.bytes_per_row", bytes_per_row, "B");
}

/// One set-up: build -> write -> server ready on `path`.  Returns its
/// seconds; the index and server stay alive in the out-parameters.
double set_up(const Inputs& in, const sfc::ServerOptions& server_options,
              const std::string& path, std::optional<sfc::PointIndex>& index,
              std::unique_ptr<sfc::IndexServer>& server,
              std::vector<double>& build_ms, SpanLog& spans) {
  const SpanLog::Scope setup = spans.begin("setup", 0, 0);
  SpanLog::Scope span = spans.begin("index.build", 0, setup.id);
  const Clock::time_point t0 = Clock::now();
  index.emplace(sfc::PointIndex::build(*in.curve, in.points));
  const Clock::time_point t1 = Clock::now();
  spans.end(span, "rows", index->row_count());
  span = spans.begin("store.write", 0, setup.id);
  sfc::write_index_file(path, *index, in.descriptor);
  spans.end(span);
  span = spans.begin("serve.open", 0, setup.id);
  server = std::make_unique<sfc::IndexServer>(path, server_options);
  const Clock::time_point t2 = Clock::now();
  spans.end(span);
  spans.end(setup);
  build_ms.push_back(us_between(t0, t1) / 1000.0);
  return seconds_between(t0, t2);
}

/// One run of the workload's batch job; returns its seconds.  kQueries
/// answers a fixed slice of the pool through the executors the server
/// dispatches to (no admission queue), checking every answer.
double batch_job(const WorkloadSpec& spec, const Inputs& in,
                 const sfc::IndexServer& server,
                 const std::vector<std::uint64_t>& reference, std::uint64_t seed,
                 std::size_t rep, RunReport& report) {
  if (spec.batch == BatchJob::kPaperSuite) {
    MeasureTiming timing;
    SpanLog quiet(false);
    return run_paper_suite(stream_seed(seed, 1000 + rep), report, timing, quiet);
  }
  const auto indices =
      iota_indices(rep * spec.batch_queries, spec.batch_queries, in.queries.size());
  const auto generation = server.generation();
  const Clock::time_point t0 = Clock::now();
  const auto hashes = execute_hashes(generation->sharded(), in.queries, indices, spec.k);
  const double seconds = seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    ++report.attempted;
    if (hashes[i] != reference[indices[i]]) {
      report.fail("batch job: wrong answer for query " + std::to_string(indices[i]));
    }
  }
  return seconds;
}

}  // namespace

RunReport run_workload(const WorkloadSpec& spec, const RunOptions& options,
                       SpanLog& spans) {
  RunReport report;
  sfc::ServerOptions server_options;
  server_options.shard_bits = spec.shard_bits;
  report.definition_json = definition_json(spec, options, server_options);

  const Inputs in = make_inputs(spec, options.seed);
  std::filesystem::create_directories(options.work_dir);
  const std::string served_path = options.work_dir + "/served.sfcidx";
  const std::string probe_path = options.work_dir + "/probe.sfcidx";

  std::vector<double> build_ms;
  std::optional<sfc::PointIndex> index;
  std::unique_ptr<sfc::IndexServer> server;
  set_up(in, server_options, served_path, index, server, build_ms, spans);

  // Reference answers from the unsharded in-memory index, then brute force.
  std::vector<std::uint64_t> reference = execute_hashes(
      index->view(), in.queries, iota_indices(0, in.queries.size(), in.queries.size()),
      spec.k);
  brute_force_check(spec, in, index->view(), reference, options.seed, report);
  if (options.self_check) reference[0] ^= 1;

  const ServeContext ctx{*server, in.queries, reference, spec.k};
  closed_loop(ctx, spec.clients, kWarmupQueries, 1e9, 0, report);

  const ReloadTarget target{*index, in.descriptor, served_path};
  const ReloadTarget* reload = spec.reload ? &target : nullptr;
  std::vector<double> reload_ms;
  SpanLog quiet(false);

  if (!options.trace) {
    // Rounds interleave every phase, so a slow second on the shared host
    // lands in one round and the medians over rounds step over it.
    const double batch_seconds = options.seconds * spec.batch_share / kRounds;
    const double closed_seconds = options.seconds * spec.closed_share / kRounds;
    const double open_seconds = options.seconds * spec.open_share / kRounds;
    std::vector<double> setup_s, batch_s, qps, p50_us, p90_us, p99_us, lag_p99_us;
    std::size_t batch_rep = 0;
    for (int round = 0; round < kRounds; ++round) {
      {
        std::optional<sfc::PointIndex> probe_index;
        std::unique_ptr<sfc::IndexServer> probe_server;
        setup_s.push_back(set_up(in, server_options, probe_path, probe_index,
                                 probe_server, build_ms, quiet));
      }
      const Clock::time_point batch_end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(batch_seconds));
      // At least one batch job; another while it should end no more than
      // half a job past the phase's time.
      do {
        batch_s.push_back(batch_job(spec, in, *server, reference, options.seed,
                                    batch_rep++, report));
      } while (Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(batch_s.back() / 2)) <=
               batch_end);
      const auto r = static_cast<std::size_t>(round);
      qps.push_back(closed_loop(ctx, spec.clients, UINT64_MAX, closed_seconds,
                                kWarmupQueries + 977 * r, report));
      const Tally open = beside_reload(ctx, reload, reload_ms, report, [&] {
        return open_loop(ctx, spec.clients, spec.open_rate_qps, open_seconds,
                         stream_seed(options.seed, 10 + r), 1601 * r, quiet, report);
      });
      p50_us.push_back(percentile(open.latency_us, 0.5));
      p90_us.push_back(percentile(open.latency_us, 0.9));
      p99_us.push_back(percentile(open.latency_us, 0.99));
      lag_p99_us.push_back(percentile(open.lag_us, 0.99));
    }
    const auto array = [](const std::vector<double>& values) {
      std::string out = "[";
      for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i ? ", " : "") + json_number(values[i]);
      }
      return out + "]";
    };
    report.samples_json = JsonObject()
                              .raw("setup_s", array(setup_s))
                              .raw("batch_s", array(batch_s))
                              .raw("qps", array(qps))
                              .raw("p50_us", array(p50_us))
                              .raw("p90_us", array(p90_us))
                              .raw("p99_us", array(p99_us))
                              .raw("loadgen_lag_p99_us", array(lag_p99_us))
                              .str();
    report.add("setup_s", median(setup_s), "s");
    report.add("qps", median(qps), "1/s");
    report.add("p50_us", median(p50_us), "us");
    report.add("p90_us", median(p90_us), "us");
    report.add("batch_s", median(batch_s), "s");
  } else {
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
      std::optional<sfc::PointIndex> probe_index;
      std::unique_ptr<sfc::IndexServer> probe_server;
      set_up(in, server_options, probe_path, probe_index, probe_server, build_ms,
             spans);
    }
    // Untraced and traced halves together last as long as the untraced
    // run's open-loop phases.
    const double open_seconds = options.seconds * spec.open_share / 2;
    const Tally untraced = beside_reload(ctx, reload, reload_ms, report, [&] {
      return open_loop(ctx, spec.clients, spec.open_rate_qps, open_seconds,
                       stream_seed(options.seed, 5), 0, quiet, report);
    });
    const sfc::ServerHealth before = server->health();
    const Tally traced = beside_reload(ctx, reload, reload_ms, report, [&] {
      return open_loop(ctx, spec.clients, spec.open_rate_qps, open_seconds,
                       stream_seed(options.seed, 6), kPoolSize / 2, spans, report);
    });
    // The dispatcher records a batch's latencies just after fulfilling it.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const sfc::ServerHealth after = server->health();

    const double executed =
        static_cast<double>(std::max<std::uint64_t>(after.executed - before.executed, 1));
    const double wait_us =
        static_cast<double>(after.queue_wait_latency.sum_ns - before.queue_wait_latency.sum_ns) /
        1000.0 / executed;
    const double execute_us =
        static_cast<double>(after.execute_latency.sum_ns - before.execute_latency.sum_ns) /
        1000.0 / executed;
    report.add("serve.queue_wait_mean_us", wait_us, "us");
    report.add("serve.execute_mean_us", execute_us, "us");
    report.add("serve.residue_mean_us", mean(traced.call_us) - wait_us - execute_us, "us");
    report.add("serve.batch_size_mean",
               executed / static_cast<double>(std::max<std::uint64_t>(
                              after.batches_dispatched - before.batches_dispatched, 1)),
               "count");
    report.add("index.build_ms", median(build_ms), "ms");
    layer_pass(spec, in, *server->generation(), report, spans);
    store_pass(spec, *index, in.descriptor, *server, served_path, probe_path,
               reload_ms, report, spans);

    MeasureTiming timing;
    if (spec.batch == BatchJob::kPaperSuite) {
      run_paper_suite(stream_seed(options.seed, 4), report, timing, spans);
    } else {
      // The paper's measures of the served curve family, at <= 2^22 cells.
      sfc::CurveDescriptor probe = in.descriptor;
      while (std::pow(static_cast<double>(probe.side), probe.dim) > 4194304.0) {
        probe.side /= 2;
      }
      measure_curve(probe, report, timing, spans, 0);
    }
    report.add("core.nn_stretch_ns_per_cell", timing.nn_seconds * 1e9 / timing.cells, "ns");
    report.add("core.lambda_ns_per_cell", timing.lambda_seconds * 1e9 / timing.cells, "ns");
    report.add("loadgen.lag_p99_us", percentile(untraced.lag_us, 0.99), "us");
    report.add("bench.trace_overhead_pct",
               (percentile(traced.latency_us, 0.5) /
                    percentile(untraced.latency_us, 0.5) - 1.0) * 100.0,
               "%");
  }

  server->stop();
  server.reset();
  std::filesystem::remove_all(options.work_dir);
  if (!options.trace) report.add("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace bench
