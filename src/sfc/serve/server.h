// The concurrent serving front end: batching admission over an index.
//
// Serving clients arrive one query at a time, but the engines are at their
// best answering batches (engine reuse, chunked parallelism).  IndexServer
// bridges the two with a classic batching admission queue: client threads
// enqueue a query and block on a future; a single dispatcher thread collects
// arrivals until the batch is full (`max_batch`) or the oldest waiting query
// has aged out (`batch_window_us`), then executes the whole batch through the
// run_range_queries / run_knn_queries executors on the generation's base
// view — one execution path per query kind — and fulfills every future.
// Under load, batches fill and throughput approaches the executors' batch
// rate; when idle, a lone query waits at most one window.
//
// The queue is a real admission controller, not a buffer: it is bounded
// (`max_queue`, ServerOverloadError beyond it — backpressure instead of
// unbounded latency), every query carries the one server-wide deadline
// (`deadline_us`, with no per-query override; a query whose deadline passes
// while queued fails fast with ServerTimeoutError at batch formation instead
// of occupying a slot), submissions after stop() fail with
// ServerStoppedError, and stop() drains: every query admitted before stop()
// is answered before stop() returns.  ServerHealth exposes the counters and
// the queue-wait / execute latency histograms an operator would watch.
//
// The index behind the server is generation-managed (sfc/serve/generation):
// each batch pins the active IndexGeneration for the duration of its
// execution, and reload(path) validates a replacement file fully before
// swapping it in at a batch boundary — queries in flight during a reload
// finish against the generation they started on, the old mapping unmaps when
// its last batch completes, and a failed reload throws ReloadError while the
// old generation keeps serving.  A degraded generation (allow_degraded) runs
// the same executors with its dead shards' key ranges excluded and answers
// the queries that needed them with typed PartialResultErrors.
//
// Answers are the engines' answers — batching and generation swaps change
// latency and throughput, never results (the serve tests assert
// equality against direct engine calls under concurrent clients and reloads).
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sfc/index/executor.h"
#include "sfc/obs/histogram.h"
#include "sfc/serve/generation.h"
#include "sfc/serve/serve_error.h"
#include "sfc/serve/trace.h"

namespace sfc {

struct ServerOptions {
  /// log2 of the shard count handed to ShardedIndex (clamped to key width):
  /// how finely degraded mode localizes corruption.
  int shard_bits = 0;
  /// Executor chunk grain (queries per engine chunk).
  std::uint64_t grain = 16;
  /// Dispatch as soon as this many queries are queued.
  std::uint32_t max_batch = 64;
  /// ... or once the oldest queued query has waited this long.
  std::uint32_t batch_window_us = 200;
  /// Admission-queue bound: a submission arriving while the queue already
  /// holds this many queries fails fast with ServerOverloadError
  /// (backpressure).  0 = unbounded (the pre-robustness behavior).
  std::uint32_t max_queue = 1024;
  /// Query deadline in microseconds after admission (0 = none), the same for
  /// every query: there is no per-query override.  A query whose deadline
  /// passes while it is still queued is failed with ServerTimeoutError at
  /// batch formation.  Admission is FIFO, so the front query always holds the
  /// earliest deadline and the batch closes no later than it.  Deadlines
  /// shorter than batch_window_us cannot be met by a batching server — the
  /// batch closes early at the front query's deadline, but that query has
  /// already aged out by then; give deadlines headroom above the window.
  std::uint64_t deadline_us = 0;
  /// Open files degraded when verification can localize corruption to shards
  /// (dead shards + PartialResultError) instead of failing the open/reload.
  /// Applies to the path constructor and every reload().
  bool allow_degraded = false;
};

/// Operator-facing snapshot of the admission controller (taken atomically
/// under the queue lock).  accepted = admitted into the queue; executed =
/// answered through a batch; accepted == executed + timed_out once drained.
/// The failure counters are bumped before the client sees the typed error
/// (rejected_overload/rejected_stopped before submit() throws, timed_out
/// before the expired promises are failed), so a caller that just caught a
/// ServeError will find itself counted.  executed and the latency histogram
/// are recorded by the dispatcher after it fulfills a batch's futures, so
/// they may momentarily trail a query whose answer just arrived; stop()
/// (which drains and joins) makes them final.
struct ServerHealth {
  std::uint64_t queue_depth = 0;       ///< queries waiting right now
  bool stopped = false;                ///< stop() has begun or finished
  std::uint64_t accepted = 0;          ///< admitted into the queue
  std::uint64_t rejected_overload = 0; ///< failed fast: queue at max_queue
  std::uint64_t rejected_stopped = 0;  ///< failed fast: submitted after stop()
  std::uint64_t timed_out = 0;         ///< dropped at batch formation: deadline
  std::uint64_t executed = 0;          ///< answered (value or engine error)
  std::uint64_t batches_dispatched = 0;
  /// Dispatch latency split at the batch boundary, so an overload's home is
  /// visible: queue_wait (enqueue -> batch formation) grows when batches form
  /// too slowly or the queue runs deep; execute (batch formation -> answer
  /// delivered) grows when the engines are the bottleneck.  Both record every
  /// executed query; end-to-end latency is their sum per query.  The
  /// registry's serve.queue_wait_us / serve.execute_us histograms record the
  /// same per-query values (one clock read per batch feeds both).
  LatencyHistogram queue_wait_latency;
  LatencyHistogram execute_latency;
  /// Generation surface: the active epoch, lifetime reload counters, and the
  /// active generation's per-shard liveness (all-1 unless degraded).
  std::uint64_t epoch = 0;
  std::uint64_t reloads = 0;
  std::uint64_t failed_reloads = 0;
  std::uint64_t shard_count = 0;
  std::uint64_t dead_shards = 0;
  std::vector<std::uint8_t> shard_alive;
};

/// An answer stamped with the generation that produced it — what the chaos
/// checker needs to verify bit-identity against the right dataset.
struct ServedRange {
  RangeQueryResult result;
  std::uint64_t epoch = 0;
};

struct ServedKnn {
  KnnQueryResult result;
  std::uint64_t epoch = 0;
};

/// A read-only query server over generation-managed index storage.  Built
/// either over caller-owned storage (the view constructor; the storage must
/// outlive the server) or over an index file (the path constructor; the file
/// is mapped, validated, and owned by the active generation, and reload()
/// can replace it at runtime).  Thread-safe: any number of client threads may
/// call range_query / knn_query concurrently, including across reloads.
class IndexServer {
 public:
  explicit IndexServer(IndexColumnsView view, const ServerOptions& options = {});
  /// Opens `path` as generation 0 (throws StoreError if it does not
  /// validate; with options.allow_degraded, localizable corruption opens
  /// degraded instead).
  explicit IndexServer(const std::string& path,
                       const ServerOptions& options = {});
  ~IndexServer();

  IndexServer(const IndexServer&) = delete;
  IndexServer& operator=(const IndexServer&) = delete;

  /// Blocking point queries: enqueue, wait for the dispatcher's batch, return
  /// the engine's answer.  Engine errors (e.g. out-of-universe arguments)
  /// rethrow on the calling thread.  Admission failures are typed: queue full
  /// = ServerOverloadError, options().deadline_us expired in queue =
  /// ServerTimeoutError, submitted after stop() = ServerStoppedError; in a
  /// degraded generation a query overlapping a dead shard throws
  /// PartialResultError (carrying the live-shard partial answer).
  RangeQueryResult range_query(const Box& box);
  KnnQueryResult knn_query(const Point& query, std::uint32_t k);

  /// Same queries, with the answer stamped with the epoch of the generation
  /// that served it — the primitive a correctness checker needs to compare
  /// an answer against the dataset it was actually served from when reloads
  /// are racing the queries.
  ServedRange range_query_served(const Box& box);
  ServedKnn knn_query_served(const Point& query, std::uint32_t k);

  /// Validates `path` fully, then atomically swaps it in as the new active
  /// generation at the next batch boundary; returns the new epoch.  Batches
  /// in flight finish on the generation they pinned; the old mapping unmaps
  /// when its last pin drops.  Throws ReloadError on any validation failure
  /// — the previous generation is untouched and keeps serving.  Safe to call
  /// concurrently with queries and other reloads.
  std::uint64_t reload(const std::string& path);

  /// Stops admission and drains: every already-admitted query is answered
  /// (or timed out by its own deadline) before this returns.  Called by the
  /// destructor; queries submitted after stop() throw ServerStoppedError.
  /// Idempotent and safe to race with concurrent clients.
  void stop();

  /// The active generation (a pin: holding the returned pointer keeps its
  /// storage mapped even across reloads).
  std::shared_ptr<const IndexGeneration> generation() const;
  const ServerOptions& options() const { return options_; }
  /// Snapshot of the robustness counters, latency histograms, and the
  /// active generation's status.
  ServerHealth health() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    enum class Kind : std::uint8_t { kRange, kKnn } kind;
    Box box;
    Point point;
    std::uint32_t k = 0;
    /// Admission time; its deadline is enqueued + options_.deadline_us.
    Clock::time_point enqueued;
    /// Span-trace correlation id, minted at admission (sfc/obs/span_trace).
    std::uint64_t trace_id = 0;
    std::promise<ServedRange> range_promise;
    std::promise<ServedKnn> knn_promise;

    explicit Pending(const Box& b)
        : kind(Kind::kRange), box(b) {}
    Pending(const Point& p, std::uint32_t kk)
        : kind(Kind::kKnn), box(Point::zero(1), Point::zero(1)), point(p), k(kk) {}
  };

  /// Both public constructors: validates options and starts the dispatcher.
  IndexServer(std::shared_ptr<const IndexGeneration> initial,
              const ServerOptions& options);

  /// The one submission path: overload/stopped checks, admission stamping,
  /// enqueue, and a dispatcher wake-up.  Callers take the promise's future
  /// first; it resolves once the dispatcher answers the query.
  void submit(Pending&& pending);

  void dispatcher_loop();
  /// Fails the batch's expired prefix (FIFO admission under one deadline
  /// puts every expired entry in front of every live one); keeps the rest.
  void expire_batch(std::vector<Pending>& batch, Clock::time_point now);
  /// Executes `batch` against `gen` (the generation the dispatcher pinned at
  /// batch formation) and fulfills every promise.  `formed` is the batch
  /// formation time, the start of every execute-side trace span.
  void execute_batch(std::vector<Pending>& batch, const IndexGeneration& gen,
                     Clock::time_point formed);

  GenerationManager generations_;
  ServerOptions options_;

  mutable std::mutex mutex_;
  std::mutex join_mutex_;  ///< serializes the dispatcher join in stop()
  std::condition_variable arrivals_;
  std::vector<Pending> pending_;
  bool stopping_ = false;
  ServerHealth health_;  ///< queue_depth/stopped filled at snapshot time
  std::thread dispatcher_;
};

/// Trace replay: `clients` threads each replay a strided slice of the trace
/// through blocking server calls, measuring per-query latency end to end
/// (admission wait + batch execution + any retry backoff included).
///
/// The client policy is retry-with-exponential-backoff: an attempt that
/// fails with ServerOverloadError or ServerTimeoutError sleeps
/// min(backoff_base_us << attempt, backoff_max_us) and retries, up to
/// max_retries re-submissions; a query still failing after its last retry is
/// tallied as rejected (overload) or timed_out (deadline) — shed load is
/// *measured*, never silently dropped.  Any other error (engine errors,
/// ServerStoppedError) aborts the replay and rethrows: those are bugs or
/// misuse, not load shedding.
struct ReplayOptions {
  std::uint32_t clients = 1;
  /// Re-submissions allowed per query after the initial attempt.
  std::uint32_t max_retries = 0;
  /// First retry backoff; doubles per attempt (exponential).
  std::uint32_t backoff_base_us = 200;
  /// Backoff ceiling.
  std::uint32_t backoff_max_us = 50000;
};

/// One replay client's outcomes, and the per-query client step that
/// replay_trace and the chaos soak (sfc/serve/chaos) share.
struct ReplayTally {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;
  /// Accepted queries only, end to end from first attempt to answer.
  std::vector<double> latencies_us;

  /// Runs `call` (one blocking server call) under the ReplayOptions
  /// retry/backoff policy and tallies the query's one outcome.  A query that
  /// is shed, retried, and finally times out tallies as one timed_out, never
  /// as one of each, so accepted + rejected + timed_out == queries holds by
  /// construction.  Errors other than shed load propagate.
  void run(const ReplayOptions& options, const std::function<void()>& call);
};

struct ReplayReport {
  std::uint32_t clients = 0;
  std::uint64_t queries = 0;  ///< offered load: every query in the trace
  std::uint64_t range_queries = 0;
  std::uint64_t knn_queries = 0;
  /// Outcome accounting: accepted + rejected + timed_out == queries.
  std::uint64_t accepted = 0;   ///< answered (possibly after retries)
  std::uint64_t rejected = 0;   ///< shed: still overloaded after max_retries
  std::uint64_t timed_out = 0;  ///< shed: still expiring after max_retries
  std::uint64_t retries = 0;    ///< total re-submissions across all queries
  /// Result-volume checksums so replays can assert they did real work.
  std::uint64_t rows_returned = 0;
  std::uint64_t neighbors_returned = 0;
  double wall_seconds = 0.0;
  /// Goodput: accepted queries per second of wall clock.
  double qps = 0.0;
  /// Latency percentiles over *accepted* queries, microseconds
  /// (nearest-rank, end to end from first attempt to answer).
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  /// Server-side split of the dispatch latency (snapshot of the server's
  /// queue-wait and execute histograms at the end of the replay): which side
  /// of the batch boundary the latency lives on.
  double queue_wait_p99_us = 0.0;
  double execute_p99_us = 0.0;
};

ReplayReport replay_trace(IndexServer& server, const QueryTrace& trace,
                          const ReplayOptions& options = {});

}  // namespace sfc
