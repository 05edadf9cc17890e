// The chaos harness, exercised small: a short soak with reloads and crash
// cycles must come out clean (no wrong answers, no torn files, identity
// intact), and the gate itself must check every invariant it claims to.
#include "sfc/serve/chaos.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace sfc {
namespace {

TEST(Chaos, MiniSoakWithCrashCyclesIsClean) {
  ChaosOptions options;
  options.descriptor.family = "hilbert";
  options.descriptor.dim = 2;
  options.descriptor.side = 64;
  options.points = 4000;
  options.seed = 5;
  options.path = ::testing::TempDir() + "/sfc_chaos_mini.sfcidx";
  options.replay.clients = 4;
  options.duration_s = 1.5;
  options.reload_every_ms = 50;
  options.crash_every = 3;  // auto-disabled under TSAN inside run_chaos
  options.server.shard_bits = 2;
  options.server.batch_window_us = 100;

  const ChaosReport report = run_chaos(options);

  // The correctness half of the gate, asserted piecewise for diagnosis.
  EXPECT_EQ(report.wrong_answers, 0u);
  EXPECT_EQ(report.torn_files, 0u);
  EXPECT_TRUE(report.identity_ok);
  EXPECT_EQ(report.accepted + report.rejected + report.timed_out,
            report.queries);
  EXPECT_GT(report.accepted, 0u);
  // The soak must have actually churned generations.
  EXPECT_GT(report.reloads, 1u);
  EXPECT_EQ(report.failed_reloads, 0u);
  EXPECT_GT(report.epochs_observed, 1u);
  EXPECT_GT(report.wall_seconds, 1.0);
  // The p99 bound is timing-sensitive; the piecewise asserts above cover
  // correctness, so give the latency factor generous CI headroom here.
  EXPECT_TRUE(report.clean(1000.0));
}

TEST(Chaos, SoakThatShedsLoadRetriesAndKeepsTheIdentity) {
  ChaosOptions options;
  options.descriptor.family = "hilbert";
  options.descriptor.dim = 2;
  options.descriptor.side = 64;
  options.points = 4000;
  options.seed = 9;
  options.path = ::testing::TempDir() + "/sfc_chaos_shed.sfcidx";
  options.replay.clients = 8;
  options.replay.max_retries = 3;
  options.replay.backoff_base_us = 50;
  options.replay.backoff_max_us = 1000;
  options.duration_s = 1.0;
  options.reload_every_ms = 50;
  // Two queue slots for eight clients: admission must shed, and the shared
  // client step must retry the shed queries.
  options.server.max_queue = 2;
  options.server.max_batch = 2;
  options.server.batch_window_us = 100;

  const ChaosReport report = run_chaos(options);

  EXPECT_EQ(report.wrong_answers, 0u);
  EXPECT_EQ(report.torn_files, 0u);
  EXPECT_TRUE(report.identity_ok);
  EXPECT_EQ(report.accepted + report.rejected + report.timed_out,
            report.queries);
  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.retries, 0u);
}

TEST(Chaos, CleanGateChecksEveryInvariant) {
  ChaosReport good;
  good.queries = 100;
  good.accepted = 90;
  good.rejected = 6;
  good.timed_out = 4;
  good.identity_ok = true;
  good.baseline_p99_us = 500.0;
  good.soak_p99_us = 900.0;
  EXPECT_TRUE(good.clean(2.0));

  ChaosReport wrong = good;
  wrong.wrong_answers = 1;
  EXPECT_FALSE(wrong.clean(2.0));

  ChaosReport torn = good;
  torn.torn_files = 1;
  EXPECT_FALSE(torn.clean(2.0));

  ChaosReport leak = good;
  leak.identity_ok = false;
  EXPECT_FALSE(leak.clean(2.0));

  ChaosReport idle = good;
  idle.accepted = 0;
  EXPECT_FALSE(idle.clean(2.0));

  // The baseline floor: a microsecond-scale baseline is floored at 2000 us,
  // so a 3900 us soak p99 passes a 2x gate...
  ChaosReport floored = good;
  floored.baseline_p99_us = 80.0;
  floored.soak_p99_us = 3900.0;
  EXPECT_TRUE(floored.clean(2.0));
  // ...but blowing past factor * floor still fails.
  floored.soak_p99_us = 4100.0;
  EXPECT_FALSE(floored.clean(2.0));

  // Above the floor the real baseline governs.
  ChaosReport slow = good;
  slow.baseline_p99_us = 5000.0;
  slow.soak_p99_us = 9900.0;
  EXPECT_TRUE(slow.clean(2.0));
  slow.soak_p99_us = 10100.0;
  EXPECT_FALSE(slow.clean(2.0));
}

}  // namespace
}  // namespace sfc
