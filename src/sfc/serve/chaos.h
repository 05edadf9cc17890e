// Chaos soak harness: serving correctness under continuous replacement.
//
// The zero-downtime claim is only worth what survives adversarial timing:
// this harness replays a query trace at high client concurrency while a
// writer thread continuously rewrites the served index file — alternating
// between two datasets so every reload *changes the right answers* — and
// triggers server reloads, optionally interleaving seeded kill-at-a-random-
// syscall-point writer crashes (fork a child, arm the store layer's write
// kill countdown, let it die mid-write, then prove the path still reloads).
//
// The gate is exact, not statistical: every accepted answer is stamped with
// the epoch it was served under and must be bit-identical to the reference
// answers of the dataset that epoch serves.  Which dataset an epoch serves is
// discovered from the answers themselves (a distinguishing query pins the
// epoch to dataset A or B; once pinned, every answer under that epoch must
// match that dataset) — no writer bookkeeping, so the check cannot be fooled
// by the race it is hunting.  Alongside: the admission identity
// accepted + rejected + timed_out == queries must hold, no reload may fail
// (a crash-interrupted write must leave the old or the new complete file,
// never a torn one), and the accepted p99 during reloads must stay within a
// factor of the no-reload baseline measured first.
#pragma once

#include <cstdint>
#include <string>

#include "sfc/curves/curve_factory.h"
#include "sfc/serve/server.h"
#include "sfc/serve/trace.h"

namespace sfc {

struct ChaosOptions {
  /// Curve identity of both datasets (family/dim/side/seed).
  CurveDescriptor descriptor;
  /// Points per dataset; dataset A draws from `seed`, dataset B from a
  /// derived seed, so the two datasets answer most queries differently.
  std::uint64_t points = 20000;
  std::uint64_t seed = 1;
  std::uint32_t block_rows = 256;
  /// Served index file path (created by the harness; rewritten throughout).
  std::string path;
  /// Query trace to replay; empty = a generated mixed trace of 512 queries.
  QueryTrace trace;
  /// Soak length in seconds (clients loop the trace until the clock runs
  /// out).  The no-reload baseline phase runs first for ~1/5 of this
  /// (minimum 0.5 s).
  double duration_s = 5.0;
  /// Writer cadence: rewrite the file + reload the server this often.
  std::uint32_t reload_every_ms = 100;
  /// Every Nth rewrite first runs a crash cycle: a forked child starts the
  /// same write with a seeded kill countdown armed and dies at that syscall,
  /// after which the parent proves the path still reloads (old or new
  /// complete file — a ReloadError here is a torn_files gate failure).
  /// 0 disables crash cycles.  Forcibly disabled under ThreadSanitizer
  /// (fork from a threaded process is outside TSAN's supported model).
  std::uint32_t crash_every = 0;
  /// Concurrent clients and their retry policy on shed load
  /// (ServerOverloadError / ServerTimeoutError): the replay_trace client step.
  ReplayOptions replay{.clients = 8,
                       .max_retries = 3,
                       .backoff_base_us = 200,
                       .backoff_max_us = 20000};
  /// Server configuration (shard_bits, batching, queue bound, deadlines).
  ServerOptions server;
};

struct ChaosReport {
  std::uint64_t queries = 0;    ///< offered queries across all clients
  std::uint64_t accepted = 0;   ///< answered; every one checked bit-exactly
  std::uint64_t rejected = 0;   ///< shed after retries: overload
  std::uint64_t timed_out = 0;  ///< shed after retries: deadline
  std::uint64_t retries = 0;
  /// Accepted answers that matched neither their epoch's pinned dataset nor
  /// (for unpinned epochs) either dataset — the forbidden outcome.
  std::uint64_t wrong_answers = 0;
  std::uint64_t reloads = 0;         ///< successful generation swaps
  std::uint64_t failed_reloads = 0;  ///< ReloadErrors observed by the writer
  std::uint64_t crash_cycles = 0;    ///< forked writer crash cycles run
  std::uint64_t crashed_writes = 0;  ///< cycles where the child actually died
  /// Reload failures after a crash cycle or rewrite — a torn file escaped
  /// the crash-safe write protocol (gate failure).
  std::uint64_t torn_files = 0;
  std::uint64_t epochs_observed = 0;  ///< distinct epochs in accepted answers
  bool identity_ok = false;  ///< accepted + rejected + timed_out == queries
  double baseline_p99_us = 0.0;  ///< accepted p99, no-reload phase
  double soak_p99_us = 0.0;      ///< accepted p99 while reloads are landing
  double wall_seconds = 0.0;

  /// The chaos gate.  p99_factor bounds soak_p99 against the baseline (the
  /// baseline is floored at 2000 us so microsecond-scale baselines do not
  /// turn scheduler noise into failures).
  bool clean(double p99_factor) const {
    const double floor_us = 2000.0;
    const double bound =
        p99_factor * (baseline_p99_us < floor_us ? floor_us : baseline_p99_us);
    return wrong_answers == 0 && torn_files == 0 && identity_ok &&
           accepted > 0 && (soak_p99_us <= bound);
  }
};

/// Runs the full chaos soak: build datasets, write A, serve, baseline
/// replay, then the soak with the writer thread (and optional crash cycles)
/// racing the clients.  Deterministic in its inputs up to thread/OS timing;
/// the *correctness* verdicts (wrong_answers, torn_files, identity_ok) are
/// timing-independent.  Throws StoreError/TraceError on setup failures.
ChaosReport run_chaos(const ChaosOptions& options);

}  // namespace sfc
