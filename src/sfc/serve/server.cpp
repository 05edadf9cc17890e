#include "sfc/serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
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
    : generations_(IndexGeneration::wrap(view, options.shard_bits, 0)),
      options_(options) {
  if (options_.max_batch < 1) {
    throw Error("IndexServer: max_batch must be >= 1");
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

IndexServer::IndexServer(const std::string& path, const ServerOptions& options)
    : generations_(IndexGeneration::open(path, options.shard_bits, 0,
                                         options.allow_degraded)),
      options_(options) {
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

void IndexServer::submit(Pending&& pending,
                         std::optional<std::uint64_t> deadline_us) {
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
    pending.deadline_us = deadline_us.value_or(options_.deadline_us);
    pending.trace_id = next_trace_id();
    if (pending.deadline_us > 0) {
      pending.deadline =
          pending.enqueued + std::chrono::microseconds(pending.deadline_us);
    }
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

RangeQueryResult IndexServer::range_query(
    const Box& box, std::optional<std::uint64_t> deadline_us) {
  return range_query_served(box, deadline_us).result;
}

KnnQueryResult IndexServer::knn_query(
    const Point& query, std::uint32_t k,
    std::optional<std::uint64_t> deadline_us) {
  return knn_query_served(query, k, deadline_us).result;
}

ServedRange IndexServer::range_query_served(
    const Box& box, std::optional<std::uint64_t> deadline_us) {
  Pending pending(box);
  std::future<ServedRange> future = pending.range_promise.get_future();
  submit(std::move(pending), deadline_us);
  return future.get();
}

ServedKnn IndexServer::knn_query_served(
    const Point& query, std::uint32_t k,
    std::optional<std::uint64_t> deadline_us) {
  Pending pending(query, k);
  std::future<ServedKnn> future = pending.knn_promise.get_future();
  submit(std::move(pending), deadline_us);
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
  std::vector<Pending> batch;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      arrivals_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping with nothing queued
      // The window opens when the dispatcher first sees a non-empty queue —
      // the oldest query waits at most one window before its batch executes.
      // Queries with deadlines pull the close earlier: waiting the full
      // window past a queued deadline would expire a query the server could
      // still have answered.
      const auto window_close = Clock::now() + window;
      while (!stopping_ && pending_.size() < options_.max_batch) {
        auto close_at = window_close;
        for (const Pending& p : pending_) {
          if (p.deadline_us > 0 && p.deadline < close_at) close_at = p.deadline;
        }
        if (Clock::now() >= close_at) break;
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
    {
      // Per-query latency split at the batch boundary: queue wait (enqueue
      // -> batch formation) and execute (formation -> answer delivered),
      // recorded with the executed count after the futures are fulfilled.
      const auto done = Clock::now();
      const double execute_us =
          std::chrono::duration<double, std::micro>(done - formed).count();
      std::lock_guard<std::mutex> lock(mutex_);
      for (const Pending& p : batch) {
        health_.queue_wait_latency.record_us(
            std::chrono::duration<double, std::micro>(formed - p.enqueued)
                .count());
        health_.execute_latency.record_us(execute_us);
        ++health_.executed;
      }
    }
    serve_metrics().executed.add(batch.size());
    if (obs_enabled()) {
      // One queue-wait span per query and one execute-side summary histogram
      // pair: the engine-fact spans were already recorded by execute_batch.
      const auto done = Clock::now();
      const double execute_us =
          std::chrono::duration<double, std::micro>(done - formed).count();
      const double formed_us = trace_time_us(formed);
      const std::uint32_t tid = trace_thread_id();
      std::vector<TraceSpan> spans;
      spans.reserve(batch.size() + 1);
      for (const Pending& p : batch) {
        const double wait_us =
            std::chrono::duration<double, std::micro>(formed - p.enqueued)
                .count();
        serve_metrics().queue_wait_us.record_us(wait_us);
        serve_metrics().execute_us.record_us(execute_us);
        TraceSpan span;
        span.trace_id = p.trace_id;
        span.name = "queue_wait";
        span.category = "serve";
        span.start_us = trace_time_us(p.enqueued);
        span.dur_us = wait_us;
        span.tid = tid;
        span.add_arg("deadline_us", p.deadline_us);
        spans.push_back(span);
      }
      TraceSpan span;
      span.name = "batch";
      span.category = "serve";
      span.start_us = formed_us;
      span.dur_us = execute_us;
      span.tid = tid;
      span.add_arg("rows", batch.size());
      span.add_arg("epoch", gen->epoch());
      spans.push_back(span);
      // One ring-lock acquisition per batch, not per query.
      TraceRing::global().record_all(spans);
    }
    if (options_.metrics_log_every_batches > 0) {
      bool log_now = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        log_now = health_.batches_dispatched %
                      options_.metrics_log_every_batches == 0;
      }
      if (log_now) log_metrics_line();
    }
    batch.clear();
  }
}

void IndexServer::log_metrics_line() {
  const ServerHealth snapshot = health();
  std::fprintf(
      stderr,
      "sfc-serve metrics: batches=%llu accepted=%llu executed=%llu "
      "timed_out=%llu rejected=%llu queue_depth=%llu queue_wait_p99_us=%.0f "
      "execute_p99_us=%.0f epoch=%llu reloads=%llu\n",
      static_cast<unsigned long long>(snapshot.batches_dispatched),
      static_cast<unsigned long long>(snapshot.accepted),
      static_cast<unsigned long long>(snapshot.executed),
      static_cast<unsigned long long>(snapshot.timed_out),
      static_cast<unsigned long long>(snapshot.rejected_overload +
                                      snapshot.rejected_stopped),
      static_cast<unsigned long long>(snapshot.queue_depth),
      snapshot.queue_wait_latency.percentile_us(0.99),
      snapshot.execute_latency.percentile_us(0.99),
      static_cast<unsigned long long>(snapshot.epoch),
      static_cast<unsigned long long>(snapshot.reloads));
}

void IndexServer::expire_batch(std::vector<Pending>& batch,
                               Clock::time_point now) {
  const auto is_expired = [now](const Pending& p) {
    return p.deadline_us > 0 && now >= p.deadline;
  };
  // Bump the counter BEFORE failing any promise: a client that observes
  // ServerTimeoutError is guaranteed to find itself in health().timed_out.
  const auto expired = static_cast<std::uint64_t>(
      std::count_if(batch.begin(), batch.end(), is_expired));
  if (expired > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    health_.timed_out += expired;
    serve_metrics().timed_out.add(expired);
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (is_expired(p)) {
      const auto waited = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                p.enqueued)
              .count());
      const auto error = std::make_exception_ptr(
          ServerTimeoutError(p.deadline_us, waited));
      if (p.kind == Pending::Kind::kRange) {
        p.range_promise.set_exception(error);
      } else {
        p.knn_promise.set_exception(error);
      }
      continue;
    }
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(kept), batch.end());
}

void IndexServer::execute_batch(std::vector<Pending>& batch,
                                const IndexGeneration& gen,
                                Clock::time_point formed) {
  // Split the mixed batch into one range sub-batch and one kNN sub-batch per
  // k (the executor answers a whole sub-batch with one k), then execute each
  // on the pinned generation's base view, excluding its dead key ranges.
  MultiQueryOptions exec;
  exec.pool = options_.pool;
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
    std::vector<double> latencies_us;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t retries = 0;
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
          const auto begin = clock::now();
          // Retry-with-exponential-backoff on shed load; anything else is a
          // real error and aborts the replay.  Every query resolves to
          // exactly one outcome, assigned exactly once at loop exit — a
          // query that is shed, retried, and finally times out tallies as
          // one timed_out, never as one of each, so the identity
          // accepted + rejected + timed_out == queries holds by
          // construction.
          enum class Outcome : std::uint8_t { kAccepted, kRejected, kTimedOut };
          Outcome outcome = Outcome::kAccepted;
          for (std::uint32_t attempt = 0;; ++attempt) {
            try {
              if (query.kind == TraceQuery::Kind::kRange) {
                tally.rows_returned += server.range_query(query.box()).ids.size();
              } else {
                tally.neighbors_returned +=
                    server.knn_query(query.point, query.k).neighbors.size();
              }
              outcome = Outcome::kAccepted;
              const auto end = clock::now();
              tally.latencies_us.push_back(
                  std::chrono::duration<double, std::micro>(end - begin)
                      .count());
              break;
            } catch (const ServerOverloadError&) {
              outcome = Outcome::kRejected;
            } catch (const ServerTimeoutError&) {
              outcome = Outcome::kTimedOut;
            }
            if (attempt >= options.max_retries) break;
            ++tally.retries;
            const std::uint64_t backoff_us = std::min<std::uint64_t>(
                options.backoff_max_us,
                static_cast<std::uint64_t>(options.backoff_base_us)
                    << std::min<std::uint32_t>(attempt, 20));
            std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
          }
          switch (outcome) {
            case Outcome::kAccepted: ++tally.accepted; break;
            case Outcome::kRejected: ++tally.rejected; break;
            case Outcome::kTimedOut: ++tally.timed_out; break;
          }
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
    report.accepted += tally.accepted;
    report.rejected += tally.rejected;
    report.timed_out += tally.timed_out;
    report.retries += tally.retries;
    report.rows_returned += tally.rows_returned;
    report.neighbors_returned += tally.neighbors_returned;
    latencies.insert(latencies.end(), tally.latencies_us.begin(),
                     tally.latencies_us.end());
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
