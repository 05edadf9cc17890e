#include "sfc/serve/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <utility>

#include "sfc/obs/metrics.h"
#include "sfc/obs/span_trace.h"

namespace sfc {

namespace {

/// Registry handles for the serve layer, resolved once.  These mirror the
/// mutex-guarded ServerHealth counters into the process-wide registry so one
/// snapshot covers every IndexServer in the process.
struct ServeMetrics {
  MetricsRegistry::Counter accepted;
  MetricsRegistry::Counter rejected_overload;
  MetricsRegistry::Counter rejected_stopped;
  MetricsRegistry::Counter timed_out;
  MetricsRegistry::Counter executed;
  MetricsRegistry::Counter batches;
  MetricsRegistry::Counter range_queries;
  MetricsRegistry::Counter knn_queries;
  MetricsRegistry::Counter reloads;
  MetricsRegistry::Counter failed_reloads;
  MetricsRegistry::Counter degraded_partials;
  MetricsRegistry::Gauge queue_depth;
  MetricsRegistry::Histogram queue_wait_us;
  MetricsRegistry::Histogram execute_us;
  MetricsRegistry::Histogram batch_rows;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics{
      MetricsRegistry::global().counter("serve.accepted"),
      MetricsRegistry::global().counter("serve.rejected_overload"),
      MetricsRegistry::global().counter("serve.rejected_stopped"),
      MetricsRegistry::global().counter("serve.timed_out"),
      MetricsRegistry::global().counter("serve.executed"),
      MetricsRegistry::global().counter("serve.batches"),
      MetricsRegistry::global().counter("serve.range_queries"),
      MetricsRegistry::global().counter("serve.knn_queries"),
      MetricsRegistry::global().counter("serve.reloads"),
      MetricsRegistry::global().counter("serve.failed_reloads"),
      MetricsRegistry::global().counter("serve.degraded_partials"),
      MetricsRegistry::global().gauge("serve.queue_depth"),
      MetricsRegistry::global().histogram("serve.queue_wait_us"),
      MetricsRegistry::global().histogram("serve.execute_us"),
      MetricsRegistry::global().histogram("serve.batch_rows"),
  };
  return metrics;
}

}  // namespace

IndexServer::IndexServer(IndexColumnsView view, const ServerOptions& options)
    : IndexServer(IndexGeneration::wrap(view, options.shard_bits, 0), options) {}

IndexServer::IndexServer(const std::string& path, const ServerOptions& options)
    : IndexServer(IndexGeneration::open(path, options.shard_bits, 0,
                                        options.allow_degraded),
                  options) {}

IndexServer::IndexServer(std::shared_ptr<const IndexGeneration> initial,
                         const ServerOptions& options)
    : generations_(std::move(initial)), options_(options) {
  if (options_.max_batch < 1) {
    throw Error("IndexServer: max_batch must be >= 1");
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

std::uint64_t IndexServer::reload(const std::string& path) {
  const double start_us = trace_now_us();
  try {
    const std::uint64_t epoch =
        generations_.reload(path, options_.shard_bits, options_.allow_degraded)
            ->epoch();
    serve_metrics().reloads.add(1);
    if (obs_enabled()) {
      TraceSpan span;
      span.name = "reload";
      span.category = "serve";
      span.start_us = start_us;
      span.dur_us = trace_now_us() - start_us;
      span.tid = trace_thread_id();
      span.add_arg("epoch", epoch);
      TraceRing::global().record(span);
    }
    return epoch;
  } catch (...) {
    serve_metrics().failed_reloads.add(1);
    throw;
  }
}

std::shared_ptr<const IndexGeneration> IndexServer::generation() const {
  return generations_.active();
}

IndexServer::~IndexServer() { stop(); }

void IndexServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  arrivals_.notify_all();
  // Serialize the join so concurrent stop() calls are safe and *every* stop()
  // returns only after the drain has finished (idempotent included).
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void IndexServer::submit(Pending&& pending) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ++health_.rejected_stopped;
      serve_metrics().rejected_stopped.add(1);
      throw ServerStoppedError();
    }
    if (options_.max_queue > 0 && pending_.size() >= options_.max_queue) {
      ++health_.rejected_overload;
      serve_metrics().rejected_overload.add(1);
      throw ServerOverloadError(pending_.size(), options_.max_queue);
    }
    pending.enqueued = Clock::now();
    pending.trace_id = next_trace_id();
    (pending.kind == Pending::Kind::kRange ? serve_metrics().range_queries
                                           : serve_metrics().knn_queries)
        .add(1);
    pending_.push_back(std::move(pending));
    ++health_.accepted;
    serve_metrics().accepted.add(1);
    serve_metrics().queue_depth.set(static_cast<std::int64_t>(pending_.size()));
  }
  arrivals_.notify_one();
}

RangeQueryResult IndexServer::range_query(const Box& box) {
  return range_query_served(box).result;
}

KnnQueryResult IndexServer::knn_query(const Point& query, std::uint32_t k) {
  return knn_query_served(query, k).result;
}

ServedRange IndexServer::range_query_served(const Box& box) {
  Pending pending(box);
  std::future<ServedRange> future = pending.range_promise.get_future();
  submit(std::move(pending));
  return future.get();
}

ServedKnn IndexServer::knn_query_served(const Point& query, std::uint32_t k) {
  Pending pending(query, k);
  std::future<ServedKnn> future = pending.knn_promise.get_future();
  submit(std::move(pending));
  return future.get();
}

ServerHealth IndexServer::health() const {
  ServerHealth snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = health_;
    snapshot.queue_depth = pending_.size();
    snapshot.stopped = stopping_;
  }
  const std::shared_ptr<const IndexGeneration> gen = generations_.active();
  snapshot.epoch = gen->epoch();
  snapshot.reloads = generations_.reloads();
  snapshot.failed_reloads = generations_.failed_reloads();
  snapshot.shard_count = gen->sharded().shard_count();
  snapshot.dead_shards = gen->dead_shards().size();
  snapshot.shard_alive = gen->shard_alive();
  return snapshot;
}

void IndexServer::dispatcher_loop() {
  const auto window = std::chrono::microseconds(options_.batch_window_us);
  const auto deadline = std::chrono::microseconds(options_.deadline_us);
  const auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  std::vector<Pending> batch;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      arrivals_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping with nothing queued
      // The window opens when the dispatcher first sees a non-empty queue —
      // the oldest query waits at most one window before its batch executes.
      // A deadline pulls the close earlier: waiting the full window past a
      // queued deadline would expire a query the server could still have
      // answered.  Admission is FIFO under one deadline, so the front query
      // (which nothing removes while we wait) holds the earliest one.
      auto close_at = Clock::now() + window;
      if (options_.deadline_us > 0) {
        close_at = std::min(close_at, pending_.front().enqueued + deadline);
      }
      while (!stopping_ && pending_.size() < options_.max_batch &&
             Clock::now() < close_at) {
        arrivals_.wait_until(lock, close_at);
      }
      batch.swap(pending_);
      ++health_.batches_dispatched;
      serve_metrics().queue_depth.set(0);
    }
    serve_metrics().batches.add(1);
    serve_metrics().batch_rows.record_us(static_cast<double>(batch.size()));
    const auto formed = Clock::now();
    expire_batch(batch, formed);
    // Pin the active generation for this whole batch: a reload that lands
    // mid-execution swaps the manager's pointer, but this batch keeps its
    // generation mapped (shared_ptr refcount) and answers from it — the swap
    // is only ever observed at a batch boundary.
    const std::shared_ptr<const IndexGeneration> gen = generations_.active();
    execute_batch(batch, *gen, formed);

    // One accounting pass after the futures are fulfilled, on one clock
    // read: each query's queue wait (enqueue -> batch formation) and execute
    // time (formation -> answer delivered) feed ServerHealth, the registry
    // histograms and the queue-wait spans with the same values.  The
    // engine-fact spans were already recorded by execute_batch.
    const double execute_us = micros(Clock::now() - formed);
    const bool traced = obs_enabled();
    LatencyHistogram queue_wait_latency;
    LatencyHistogram execute_latency;
    std::vector<TraceSpan> spans;
    if (traced) spans.reserve(batch.size() + 1);
    const std::uint32_t tid = trace_thread_id();
    for (const Pending& p : batch) {
      const double wait_us = micros(formed - p.enqueued);
      queue_wait_latency.record_us(wait_us);
      execute_latency.record_us(execute_us);
      serve_metrics().queue_wait_us.record_us(wait_us);
      serve_metrics().execute_us.record_us(execute_us);
      if (traced) {
        TraceSpan span;
        span.trace_id = p.trace_id;
        span.name = "queue_wait";
        span.category = "serve";
        span.start_us = trace_time_us(p.enqueued);
        span.dur_us = wait_us;
        span.tid = tid;
        span.add_arg("deadline_us", options_.deadline_us);
        spans.push_back(span);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      health_.queue_wait_latency.merge(queue_wait_latency);
      health_.execute_latency.merge(execute_latency);
      health_.executed += batch.size();
    }
    serve_metrics().executed.add(batch.size());
    if (traced) {
      TraceSpan span;
      span.name = "batch";
      span.category = "serve";
      span.start_us = trace_time_us(formed);
      span.dur_us = execute_us;
      span.tid = tid;
      span.add_arg("rows", batch.size());
      span.add_arg("epoch", gen->epoch());
      spans.push_back(span);
      // One ring-lock acquisition per batch, not per query.
      TraceRing::global().record_all(spans);
    }
    batch.clear();
  }
}

void IndexServer::expire_batch(std::vector<Pending>& batch,
                               Clock::time_point now) {
  if (options_.deadline_us == 0) return;
  const auto deadline = std::chrono::microseconds(options_.deadline_us);
  // Entries are in admission order under one deadline, so the expired ones
  // are exactly a prefix.
  const auto live = std::find_if(
      batch.begin(), batch.end(),
      [&](const Pending& p) { return now < p.enqueued + deadline; });
  const auto expired = static_cast<std::uint64_t>(live - batch.begin());
  if (expired == 0) return;
  // Bump the counter BEFORE failing any promise: a client that observes
  // ServerTimeoutError is guaranteed to find itself in health().timed_out.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    health_.timed_out += expired;
    serve_metrics().timed_out.add(expired);
  }
  for (auto it = batch.begin(); it != live; ++it) {
    const auto waited = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                              it->enqueued)
            .count());
    const auto error = std::make_exception_ptr(
        ServerTimeoutError(options_.deadline_us, waited));
    if (it->kind == Pending::Kind::kRange) {
      it->range_promise.set_exception(error);
    } else {
      it->knn_promise.set_exception(error);
    }
  }
  batch.erase(batch.begin(), live);
}

void IndexServer::execute_batch(std::vector<Pending>& batch,
                                const IndexGeneration& gen,
                                Clock::time_point formed) {
  // Split the mixed batch into one range sub-batch and one kNN sub-batch per
  // k (the executor answers a whole sub-batch with one k), then execute each
  // on the pinned generation's base view, excluding its dead key ranges.
  MultiQueryOptions exec;
  exec.grain = options_.grain;
  const IndexColumnsView& view = gen.sharded().base();
  const std::span<const KeyInterval> dead = gen.dead_key_ranges();
  const std::uint64_t epoch = gen.epoch();
  const double formed_us = trace_time_us(formed);

  // Per-query engine-fact span: the execute-side phase of the request's
  // timeline, carrying the engine's work accounting (the paper's clustering
  // quantities, observed live).  Duration is the sub-batch's wall time — the
  // executor answers sub-batches as a unit, so that is the latency the query
  // actually experienced.  Spans are staged locally and flushed with one
  // record_all at the end, so the ring mutex is taken once per batch.
  std::vector<TraceSpan> engine_spans;
  const auto record_range_span = [&](const Pending& p,
                                     const RangeScanStats& stats,
                                     std::uint64_t rows, double dur_us) {
    TraceSpan span;
    span.trace_id = p.trace_id;
    span.name = "range";
    span.category = "engine";
    span.start_us = formed_us;
    span.dur_us = dur_us;
    span.tid = trace_thread_id();
    span.add_arg("epoch", epoch);
    span.add_arg("rows_returned", rows);
    span.add_arg("rows_scanned", stats.rows_scanned);
    span.add_arg("runs_in_cover", stats.runs_in_cover);
    span.add_arg("runs_touched", stats.runs_touched);
    span.add_arg("nodes_visited", stats.nodes_visited);
    span.add_arg("used_subtree", stats.used_subtree ? 1 : 0);
    engine_spans.push_back(span);
  };
  const auto record_knn_span = [&](const Pending& p, const KnnStats& stats,
                                   std::uint64_t neighbors, double dur_us) {
    TraceSpan span;
    span.trace_id = p.trace_id;
    span.name = "knn";
    span.category = "engine";
    span.start_us = formed_us;
    span.dur_us = dur_us;
    span.tid = trace_thread_id();
    span.add_arg("epoch", epoch);
    span.add_arg("k", p.k);
    span.add_arg("neighbors", neighbors);
    span.add_arg("nodes_expanded", stats.nodes_expanded);
    span.add_arg("frontier_pushes", stats.frontier_pushes);
    span.add_arg("rows_scanned", stats.rows_scanned);
    span.add_arg("certified", stats.certified ? 1 : 0);
    engine_spans.push_back(span);
  };

  std::vector<std::size_t> range_slots;
  std::map<std::uint32_t, std::vector<std::size_t>> knn_slots;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].kind == Pending::Kind::kRange) {
      range_slots.push_back(i);
    } else {
      knn_slots[batch[i].k].push_back(i);
    }
  }

  if (!range_slots.empty()) {
    std::vector<Box> boxes;
    boxes.reserve(range_slots.size());
    for (const std::size_t i : range_slots) boxes.push_back(batch[i].box);
    try {
      std::vector<RangeQueryResult> results =
          run_range_queries(view, boxes, exec, dead);
      const double sub_us = obs_enabled() ? trace_now_us() - formed_us : 0.0;
      for (std::size_t j = 0; j < range_slots.size(); ++j) {
        Pending& p = batch[range_slots[j]];
        RangeQueryResult& r = results[j];
        if (obs_enabled()) {
          record_range_span(p, r.stats, r.ids.size(), sub_us);
        }
        if (r.excluded_overlap.empty()) {
          p.range_promise.set_value(ServedRange{std::move(r), epoch});
        } else {
          // The cover reached dead key ranges: name their shards.
          for (std::uint32_t& d : r.excluded_overlap) d = gen.dead_shards()[d];
          serve_metrics().degraded_partials.add(1);
          p.range_promise.set_exception(std::make_exception_ptr(
              PartialResultError(std::move(r.excluded_overlap),
                                 std::move(r.ids))));
        }
      }
    } catch (...) {
      // A bad query (e.g. out-of-universe box) fails the whole sub-batch;
      // every waiter sees the error on its own thread.
      for (const std::size_t i : range_slots) {
        batch[i].range_promise.set_exception(std::current_exception());
      }
    }
  }

  for (auto& [k, slots] : knn_slots) {
    std::vector<Point> points;
    points.reserve(slots.size());
    for (const std::size_t i : slots) points.push_back(batch[i].point);
    try {
      std::vector<KnnQueryResult> results =
          run_knn_queries(view, points, k, exec, dead);
      const double sub_us = obs_enabled() ? trace_now_us() - formed_us : 0.0;
      for (std::size_t j = 0; j < slots.size(); ++j) {
        Pending& p = batch[slots[j]];
        KnnQueryResult& r = results[j];
        if (obs_enabled()) {
          record_knn_span(p, r.stats, r.neighbors.size(), sub_us);
        }
        if (r.stats.certified) {
          p.knn_promise.set_value(ServedKnn{std::move(r), epoch});
        } else {
          // Uncertified = dead rows were excluded, and any dead shard could
          // hold a closer neighbor: report every one.
          serve_metrics().degraded_partials.add(1);
          p.knn_promise.set_exception(std::make_exception_ptr(
              PartialResultError(gen.dead_shards(), std::move(r.neighbors))));
        }
      }
    } catch (...) {
      for (const std::size_t i : slots) {
        batch[i].knn_promise.set_exception(std::current_exception());
      }
    }
  }
  TraceRing::global().record_all(engine_spans);
}

void ReplayTally::run(const ReplayOptions& options,
                      const std::function<void()>& call) {
  using clock = std::chrono::steady_clock;
  const auto begin = clock::now();
  // Retry-with-exponential-backoff on shed load; anything else is a real
  // error and propagates.  A shed query is tallied once, by its last error.
  std::uint64_t* shed = nullptr;
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      call();
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(clock::now() - begin)
              .count());
      ++accepted;
      return;
    } catch (const ServerOverloadError&) {
      shed = &rejected;
    } catch (const ServerTimeoutError&) {
      shed = &timed_out;
    }
    if (attempt >= options.max_retries) break;
    ++retries;
    const std::uint32_t shift = std::min<std::uint32_t>(attempt, 20);
    const std::uint64_t backoff_us = std::min<std::uint64_t>(
        options.backoff_max_us,
        static_cast<std::uint64_t>(options.backoff_base_us) << shift);
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
  }
  ++*shed;
}

ReplayReport replay_trace(IndexServer& server, const QueryTrace& trace,
                          const ReplayOptions& options) {
  const std::uint32_t clients = std::max<std::uint32_t>(1, options.clients);
  ReplayReport report;
  report.clients = clients;
  report.queries = trace.size();
  report.range_queries = trace.range_count();
  report.knn_queries = trace.knn_count();
  if (trace.empty()) return report;

  struct ClientTally {
    ReplayTally outcomes;
    std::uint64_t rows_returned = 0;
    std::uint64_t neighbors_returned = 0;
    std::exception_ptr error;
  };
  std::vector<ClientTally> tallies(clients);

  using clock = std::chrono::steady_clock;
  const auto replay_begin = clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& tally = tallies[c];
      try {
        // Strided slice: client c replays queries c, c+clients, ... so every
        // client mixes range and kNN work the way the trace does.
        for (std::size_t q = c; q < trace.size(); q += clients) {
          const TraceQuery& query = trace.queries[q];
          tally.outcomes.run(options, [&] {
            if (query.kind == TraceQuery::Kind::kRange) {
              tally.rows_returned += server.range_query(query.box()).ids.size();
            } else {
              tally.neighbors_returned +=
                  server.knn_query(query.point, query.k).neighbors.size();
            }
          });
        }
      } catch (...) {
        tally.error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto replay_end = clock::now();

  std::vector<double> latencies;
  latencies.reserve(trace.size());
  for (ClientTally& tally : tallies) {
    if (tally.error) std::rethrow_exception(tally.error);
    report.accepted += tally.outcomes.accepted;
    report.rejected += tally.outcomes.rejected;
    report.timed_out += tally.outcomes.timed_out;
    report.retries += tally.outcomes.retries;
    report.rows_returned += tally.rows_returned;
    report.neighbors_returned += tally.neighbors_returned;
    latencies.insert(latencies.end(), tally.outcomes.latencies_us.begin(),
                     tally.outcomes.latencies_us.end());
  }

  report.wall_seconds =
      std::chrono::duration<double>(replay_end - replay_begin).count();
  report.qps = report.wall_seconds > 0.0
                   ? static_cast<double>(report.accepted) / report.wall_seconds
                   : 0.0;
  // Exact percentiles from the shared helper (it sorts `latencies`), so the
  // replay report and the chaos report use one nearest-rank definition.
  report.p50_us = nearest_rank_percentile(latencies, 0.50);
  report.p99_us = nearest_rank_percentile(latencies, 0.99);
  report.max_us = latencies.empty() ? 0.0 : latencies.back();
  const ServerHealth health = server.health();
  report.queue_wait_p99_us = health.queue_wait_latency.percentile_us(0.99);
  report.execute_p99_us = health.execute_latency.percentile_us(0.99);
  return report;
}

}  // namespace sfc
