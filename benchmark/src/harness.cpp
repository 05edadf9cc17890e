#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "sfc/obs/histogram.h"
#include "sfc/rng/splitmix64.h"
#include "sfc/store/index_store.h"

namespace bench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double percentile(std::vector<double> values, double fraction) {
  return sfc::nearest_rank_percentile(values, fraction);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  sfc::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.next();
}

std::uint64_t answer_hash(const sfc::RangeQueryResult& result) {
  const std::uint64_t runs = result.stats.runs_in_cover;
  const std::uint64_t h = sfc::fnv1a64(&runs, sizeof runs);
  return sfc::fnv1a64(result.ids.data(),
                      result.ids.size() * sizeof(std::uint32_t), h);
}

std::uint64_t answer_hash(const sfc::KnnQueryResult& result) {
  std::uint64_t h = sfc::fnv1a64(nullptr, 0);
  for (const sfc::KnnNeighbor& n : result.neighbors) {
    const std::uint64_t pair[2] = {n.id, n.sq_dist};
    h = sfc::fnv1a64(pair, sizeof pair, h);
  }
  return h;
}

void RunReport::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

void RunReport::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string json_number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc{}) return "0";
  std::string text(buffer, end);
  // JSON has no inf/nan; a metric that produced one is reported as null.
  if (text.find_first_of("in") != std::string::npos) return "null";
  return text;
}

std::string json_string(std::string_view value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObject::key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": ";
}

JsonObject& JsonObject::number(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::text(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

std::string result_line(const RunReport& report) {
  JsonObject metrics;
  for (const Metric& m : report.metrics) {
    metrics.raw(m.name, JsonObject().number("value", m.value).text("unit", m.unit).str());
  }
  return JsonObject()
      .raw("correct", report.correct() ? "true" : "false")
      .integer("attempted", std::max<std::uint64_t>(report.attempted, 1))
      .integer("failed", report.failed)
      .raw("metrics", metrics.str())
      .str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(content.data(), static_cast<std::streamsize>(content.size()));
  file.flush();
  if (!file) throw std::runtime_error("cannot write " + path);
}

SpanLog::Scope SpanLog::begin(const char* name, std::uint64_t request,
                              std::uint64_t parent) {
  if (!enabled_) return {};
  Scope scope;
  scope.id = ++next_id_;
  scope.parent = parent;
  scope.request = request;
  scope.name = name;
  scope.start_us = sfc::trace_now_us();
  return scope;
}

void SpanLog::end(const Scope& scope, const char* fact, std::uint64_t value) {
  if (!enabled_) return;
  sfc::TraceSpan span;
  span.trace_id = scope.request;
  span.name = scope.name;
  span.category = "bench";
  span.start_us = scope.start_us;
  span.dur_us = sfc::trace_now_us() - scope.start_us;
  span.tid = sfc::trace_thread_id();
  span.add_arg("span", scope.id);
  span.add_arg("parent", scope.parent);
  if (fact != nullptr) span.add_arg(fact, value);
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void SpanLog::record(const char* name, std::uint64_t request,
                     std::uint64_t parent, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled_) return;
  sfc::TraceSpan span;
  span.trace_id = request;
  span.name = name;
  span.category = "bench";
  span.start_us = sfc::trace_time_us(start);
  span.dur_us = us_between(start, end);
  span.tid = sfc::trace_thread_id();
  span.add_arg("span", ++next_id_);
  span.add_arg("parent", parent);
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::string SpanLog::chrome_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sfc::chrome_trace_json(spans_);
}

}  // namespace bench
