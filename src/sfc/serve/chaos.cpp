#include "sfc/serve/chaos.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "sfc/index/knn.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/obs/histogram.h"
#include "sfc/rng/sampling.h"
#include "sfc/rng/xoshiro256.h"
#include "sfc/serve/serve_error.h"
#include "sfc/store/index_store.h"

// Crash cycles fork from a threaded process, which ThreadSanitizer does not
// model; the harness degrades to crash-free soaking under TSAN.
#if defined(__SANITIZE_THREAD__)
#define SFC_CHAOS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SFC_CHAOS_TSAN 1
#endif
#endif

namespace sfc {

namespace {

using Clock = std::chrono::steady_clock;

/// Reference answers of one dataset, indexed by trace position (only the
/// entry matching the query's kind is meaningful).
struct RefAnswers {
  std::vector<std::vector<std::uint32_t>> range_ids;
  std::vector<std::vector<KnnNeighbor>> knn;
};

RefAnswers reference_answers(const IndexColumnsView& view,
                             const QueryTrace& trace) {
  RefAnswers refs;
  refs.range_ids.resize(trace.size());
  refs.knn.resize(trace.size());
  RangeScanEngine range(view);
  KnnEngine knn(view);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceQuery& q = trace.queries[i];
    if (q.kind == TraceQuery::Kind::kRange) {
      RangeQueryResult r;
      range.scan(q.box(), &r.ids, &r.stats);
      refs.range_ids[i] = std::move(r.ids);
    } else {
      KnnQueryResult r;
      refs.knn[i] = knn.query(q.point, q.k, &r.stats);
    }
  }
  return refs;
}

constexpr int kDatasetA = 1;
constexpr int kDatasetB = 2;

/// The answer oracle: pins epochs to datasets as distinguishing answers
/// arrive and convicts answers that match neither their epoch's dataset nor
/// (while unpinned) either dataset.  Thread-safe; the pin race is harmless
/// because both racers derived the same verdict from bit-identical data.
class EpochOracle {
 public:
  /// `match` is a bitmask: kDatasetA set = answer equals dataset A's
  /// reference, kDatasetB likewise.  Returns false iff the answer is wrong.
  bool check(std::uint64_t epoch, int match) {
    std::lock_guard<std::mutex> lock(mutex_);
    epochs_.insert(epoch);
    const auto it = pinned_.find(epoch);
    if (it != pinned_.end()) return (match & it->second) != 0;
    if (match == 0) return false;
    if (match == kDatasetA || match == kDatasetB) pinned_[epoch] = match;
    return true;  // matches at least one dataset; both = not distinguishing
  }

  std::uint64_t epochs_observed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return epochs_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, int> pinned_;
  std::set<std::uint64_t> epochs_;
};

struct ClientTally {
  std::uint64_t queries = 0;
  std::uint64_t wrong_answers = 0;
  ReplayTally outcomes;
  std::exception_ptr error;
};

/// One client: loops its strided trace slice until `deadline`, replaying
/// through the served (epoch-stamped) entry points with the replay_trace
/// client step, checking every accepted answer against the oracle.
void chaos_client(IndexServer& server, const QueryTrace& trace,
                  const ReplayOptions& replay, const RefAnswers& ref_a,
                  const RefAnswers& ref_b, EpochOracle& oracle,
                  std::uint32_t client, std::uint32_t clients,
                  Clock::time_point deadline, ClientTally& tally) {
  try {
    while (Clock::now() < deadline) {
      for (std::size_t q = client; q < trace.size(); q += clients) {
        if (Clock::now() >= deadline) break;
        const TraceQuery& query = trace.queries[q];
        ++tally.queries;
        tally.outcomes.run(replay, [&] {
          int match = 0;
          std::uint64_t epoch = 0;
          if (query.kind == TraceQuery::Kind::kRange) {
            const ServedRange served = server.range_query_served(query.box());
            epoch = served.epoch;
            if (served.result.ids == ref_a.range_ids[q]) match |= kDatasetA;
            if (served.result.ids == ref_b.range_ids[q]) match |= kDatasetB;
          } else {
            const ServedKnn served =
                server.knn_query_served(query.point, query.k);
            epoch = served.epoch;
            if (served.result.neighbors == ref_a.knn[q]) match |= kDatasetA;
            if (served.result.neighbors == ref_b.knn[q]) match |= kDatasetB;
          }
          if (!oracle.check(epoch, match)) ++tally.wrong_answers;
        });
      }
    }
  } catch (...) {
    tally.error = std::current_exception();
  }
}

/// Runs `clients` chaos clients until `deadline` and folds their tallies
/// into `report`; returns the phase's accepted latencies.
std::vector<double> run_phase(IndexServer& server, const QueryTrace& trace,
                              const ChaosOptions& options,
                              const RefAnswers& ref_a, const RefAnswers& ref_b,
                              EpochOracle& oracle, Clock::time_point deadline,
                              ChaosReport& report) {
  const std::uint32_t clients =
      std::max<std::uint32_t>(1, options.replay.clients);
  std::vector<ClientTally> tallies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      chaos_client(server, trace, options.replay, ref_a, ref_b, oracle, c,
                   clients, deadline, tallies[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> latencies;
  for (ClientTally& tally : tallies) {
    if (tally.error) std::rethrow_exception(tally.error);
    report.queries += tally.queries;
    report.accepted += tally.outcomes.accepted;
    report.rejected += tally.outcomes.rejected;
    report.timed_out += tally.outcomes.timed_out;
    report.retries += tally.outcomes.retries;
    report.wrong_answers += tally.wrong_answers;
    latencies.insert(latencies.end(), tally.outcomes.latencies_us.begin(),
                     tally.outcomes.latencies_us.end());
  }
  return latencies;
}

}  // namespace

ChaosReport run_chaos(const ChaosOptions& options) {
  const CurvePtr curve = make_curve(options.descriptor);
  const Universe& universe = curve->universe();

  // Two datasets with the same curve but different points: reloads between
  // them change the right answers, which is what makes a stale or torn read
  // *detectable* rather than coincidentally correct.
  const auto draw_points = [&](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<Point> points;
    points.reserve(options.points);
    for (std::uint64_t i = 0; i < options.points; ++i) {
      points.push_back(random_cell(universe, rng));
    }
    return points;
  };
  IndexBuildOptions build;
  build.block_rows = options.block_rows;
  const std::vector<Point> points_a = draw_points(options.seed);
  const std::vector<Point> points_b =
      draw_points(options.seed ^ 0x9e3779b97f4a7c15ULL);
  const PointIndex index_a = PointIndex::build(*curve, points_a, build);
  const PointIndex index_b = PointIndex::build(*curve, points_b, build);

  QueryTrace trace = options.trace;
  if (trace.empty()) {
    TraceGenOptions gen;
    gen.count = 512;
    gen.box_extent = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(universe.side() / 8));
    gen.knn_k = 8;
    gen.seed = options.seed;
    trace = generate_trace(universe, gen);
  }
  const RefAnswers ref_a = reference_answers(index_a.view(), trace);
  const RefAnswers ref_b = reference_answers(index_b.view(), trace);

  write_index_file(options.path, index_a, options.descriptor);

  ChaosReport report;
  const auto soak_begin = Clock::now();
  {
    IndexServer server(options.path, options.server);
    EpochOracle oracle;

    // Phase 1: no-reload baseline — same clients, same trace, quiet writer.
    const double baseline_s = std::max(0.5, options.duration_s / 5.0);
    std::vector<double> baseline_latencies = run_phase(
        server, trace, options, ref_a, ref_b, oracle,
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(baseline_s)),
        report);
    report.baseline_p99_us = nearest_rank_percentile(baseline_latencies, 0.99);

    // Phase 2: the soak — writer rewrites A/B and reloads on a cadence,
    // with optional seeded crash cycles, while the clients keep replaying.
    std::uint32_t crash_every = options.crash_every;
#ifdef SFC_CHAOS_TSAN
    crash_every = 0;
#endif
    const auto soak_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.duration_s));
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> crash_cycles{0};
    std::atomic<std::uint64_t> crashed_writes{0};
    std::thread writer([&] {
      bool write_b = true;
      std::uint64_t rewrites = 0;
      Xoshiro256 wrng(options.seed ^ 0x517cc1b727220a95ULL);
      while (Clock::now() < soak_deadline) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.reload_every_ms));
        ++rewrites;
        const PointIndex& next = write_b ? index_b : index_a;
        if (crash_every > 0 && rewrites % crash_every == 0) {
          // Crash cycle: the child arms the kill countdown (drawn in the
          // parent so the writer's rng stream stays deterministic) and dies
          // at that write-path syscall; the parent then proves the served
          // path still reloads — the crash-safe protocol guarantees the old
          // or the new complete file, never a torn one.
          const int countdown = 1 + static_cast<int>(wrng.next_below(24));
          const ::pid_t pid = ::fork();
          if (pid == 0) {
            store_testing::write_kill_countdown.store(countdown);
            try {
              write_index_file(options.path, next, options.descriptor);
            } catch (...) {
            }
            ::_exit(0);
          }
          ++crash_cycles;
          if (pid > 0) {
            int status = 0;
            ::waitpid(pid, &status, 0);
            if (WIFEXITED(status) &&
                WEXITSTATUS(status) == store_testing::kKillExitCode) {
              ++crashed_writes;
            }
          }
          try {
            (void)server.reload(options.path);
          } catch (const ReloadError&) {
            ++torn;
          }
        }
        try {
          write_index_file(options.path, next, options.descriptor);
          (void)server.reload(options.path);
          write_b = !write_b;
        } catch (const ReloadError&) {
          ++torn;
        }
      }
    });
    std::vector<double> soak_latencies =
        run_phase(server, trace, options, ref_a, ref_b, oracle, soak_deadline,
                  report);
    writer.join();
    report.soak_p99_us = nearest_rank_percentile(soak_latencies, 0.99);
    report.torn_files = torn.load();
    report.crash_cycles = crash_cycles.load();
    report.crashed_writes = crashed_writes.load();
    report.epochs_observed = oracle.epochs_observed();

    server.stop();
    const ServerHealth health = server.health();
    report.reloads = health.reloads;
    report.failed_reloads = health.failed_reloads;
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - soak_begin).count();
  report.identity_ok =
      report.accepted + report.rejected + report.timed_out == report.queries;
  return report;
}

}  // namespace sfc
