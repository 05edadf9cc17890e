// The benchmark's workloads and the runner that measures them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "sfc/common/types.h"

namespace bench {

enum class DataShape {
  kUniform,   ///< points drawn uniformly from the universe
  kClusters,  ///< Gaussian clusters plus a uniform background
};

enum class BatchJob {
  kQueries,     ///< a fixed batch of the workload's queries through the executors
  kPaperSuite,  ///< the paper-measure suite (Davg, Dmax, Λ, clustering)
};

/// One workload: dataset, query mix, server configuration and load.  Every
/// input is generated from the run seed; the library sees only the results.
struct WorkloadSpec {
  const char* name;
  // Curve and universe of the served index.
  const char* family;
  int dim;
  sfc::coord_t side;
  // Dataset.
  DataShape data;
  std::uint64_t points;
  std::uint32_t clusters;   ///< kClusters only
  double sigma;             ///< cluster standard deviation, cells
  double background;        ///< share of uniform points in kClusters
  // Query mix.
  std::uint32_t range_percent;        ///< the rest are kNN queries
  sfc::coord_t extent_min, extent_max;  ///< range box side, uniform in range
  std::uint32_t k;                    ///< kNN k (and the traced kNN probe's k)
  sfc::coord_t probe_extent;          ///< traced range probe around kNN points
  // Server and load.
  int shard_bits;
  std::uint32_t clients;          ///< query threads
  double open_rate_qps;           ///< fixed open-loop offered load
  /// A writer thread rewrites the served file and reloads the server as
  /// every open-loop phase starts.
  bool reload;
  BatchJob batch;
  std::uint32_t batch_queries;    ///< kQueries: queries per batch
  // Shares of the measured seconds given to the batch, closed-loop and
  // open-loop phases.
  double batch_share, closed_share, open_share;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Corrupts one reference answer so the run must fail (tests the checker).
  bool self_check = false;
  /// Scratch directory for index files; removed when the run ends.
  std::string work_dir;
  /// Directory the run JSON, layers.json and Chrome trace go to.
  std::string out_dir;
};

/// Runs one workload end to end (untraced) or its traced per-layer pass.
RunReport run_workload(const WorkloadSpec& spec, const RunOptions& options,
                       SpanLog& spans);

}  // namespace bench
