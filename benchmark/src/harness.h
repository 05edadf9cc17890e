// Shared plumbing of sfc_bench: timing, percentiles, answer
// hashing, the run report with its JSON renderings, and the in-memory span
// log of the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sfc/index/executor.h"
#include "sfc/obs/span_trace.h"

namespace bench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
double us_between(Clock::time_point from, Clock::time_point to);

/// Nearest-rank percentile (the library's definition); 0 when empty.
double percentile(std::vector<double> values, double fraction);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Independent stream seeds derived from the run seed, one per input kind.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Answer digests compared against the reference pass: the payload ids in
/// row order plus the cover's run count for a range query, (id, sq_dist) in
/// rank order for a kNN query.
std::uint64_t answer_hash(const sfc::RangeQueryResult& result);
std::uint64_t answer_hash(const sfc::KnnQueryResult& result);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run.  `attempted` counts every operation whose
/// answer or invariant was checked; `failed` those refused, timed out,
/// raising, or answering wrongly.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> metrics;
  /// Full workload definition as a JSON object, so a run file reproduces.
  std::string definition_json;
  /// Per-round samples behind the reported medians (JSON object; may be empty).
  std::string samples_json;

  void fail(const std::string& message);
  void add(std::string name, double value, std::string unit);
  bool correct() const { return failed == 0; }
};

/// Minimal JSON object writer (keys in insertion order).
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::uint64_t value);
  JsonObject& text(std::string_view key, std::string_view value);
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view key);
  std::string body_;
};

/// Shortest round-trip rendering of a double (all its digits).
std::string json_number(double value);
std::string json_string(std::string_view value);

/// The result line the contract reads: correct/attempted/failed/metrics.
std::string result_line(const RunReport& report);

void write_file(const std::string& path, const std::string& content);

/// Spans of the traced run, kept in memory and written at exit as Chrome
/// trace-event JSON.  Each span carries its own id and its parent's id as
/// args, and the request id of the query it belongs to as its trace id.
class SpanLog {
 public:
  /// An open span; all zero when the log is disabled.
  struct Scope {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    const char* name = "";
    double start_us = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span of request `request` under span `parent` (0 = root).
  Scope begin(const char* name, std::uint64_t request, std::uint64_t parent);
  /// A fresh request id (0 when the log is disabled).
  std::uint64_t next_request() { return enabled_ ? ++next_request_ : 0; }
  /// Closes `scope`; `fact`/`value` is one optional integer arg.
  void end(const Scope& scope, const char* fact = nullptr,
           std::uint64_t value = 0);
  /// Records an already-measured interval.
  void record(const char* name, std::uint64_t request, std::uint64_t parent,
              Clock::time_point start, Clock::time_point end);

  std::string chrome_json() const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::mutex mutex_;
  std::vector<sfc::TraceSpan> spans_;  ///< guarded by mutex_
};

}  // namespace bench
