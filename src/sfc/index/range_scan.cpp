#include "sfc/index/range_scan.h"

#include "sfc/obs/metrics.h"

namespace sfc {

namespace {

struct RangeScanMetrics {
  MetricsRegistry::Counter queries;
  MetricsRegistry::Counter rows_returned;
  MetricsRegistry::Counter rows_scanned;
  MetricsRegistry::Counter runs_in_cover;
  MetricsRegistry::Counter runs_touched;
  MetricsRegistry::Counter nodes_visited;
};

RangeScanMetrics& range_scan_metrics() {
  static RangeScanMetrics metrics{
      MetricsRegistry::global().counter("index.range.queries"),
      MetricsRegistry::global().counter("index.range.rows_returned"),
      MetricsRegistry::global().counter("index.range.rows_scanned"),
      MetricsRegistry::global().counter("index.range.runs_in_cover"),
      MetricsRegistry::global().counter("index.range.runs_touched"),
      MetricsRegistry::global().counter("index.range.nodes_visited"),
  };
  return metrics;
}

}  // namespace

void RangeScanEngine::scan(const Box& box, std::vector<std::uint32_t>* out,
                           RangeScanStats* stats,
                           std::vector<std::uint32_t>* excluded_overlap) {
  out->clear();
  if (excluded_overlap != nullptr) excluded_overlap->clear();
  RangeScanStats local;
  CoverStats cover_stats;
  const std::span<const std::uint32_t> ids = view_.ids();
  // Appends the rows of keys [lo, hi]; true when there were any.
  const auto emit = [&](index_t lo, index_t hi) {
    const auto [first, last] = view_.rows_in_interval(lo, hi);
    if (first == last) return false;
    local.rows_returned += last - first;
    out->insert(out->end(), ids.begin() + static_cast<std::ptrdiff_t>(first),
                ids.begin() + static_cast<std::ptrdiff_t>(last));
    return true;
  };
  cover_.for_each_interval(
      box, ws_,
      [&](const KeyInterval& interval) {
        ++local.runs_in_cover;
        // Emit the live gaps between the excluded ranges the interval
        // crosses.  Cover intervals ascend, so hits arrive in order.
        bool touched = false;
        index_t lo = interval.lo;
        bool live_tail = true;
        auto it = first_interval_ending_at(excluded_, interval.lo);
        for (; it != excluded_.end() && it->lo <= interval.hi; ++it) {
          const auto hit = static_cast<std::uint32_t>(it - excluded_.begin());
          if (excluded_overlap != nullptr &&
              (excluded_overlap->empty() || excluded_overlap->back() != hit)) {
            excluded_overlap->push_back(hit);
          }
          if (it->lo > lo) touched |= emit(lo, it->lo - 1);
          if (it->hi >= interval.hi) {
            live_tail = false;
            break;
          }
          lo = it->hi + 1;
        }
        if (live_tail) touched |= emit(lo, interval.hi);
        if (touched) ++local.runs_touched;
      },
      &cover_stats);
  // Exact covers: every resolved row is a hit, nothing else was touched.
  local.rows_scanned = local.rows_returned;
  local.nodes_visited = cover_stats.nodes_visited;
  local.used_subtree = cover_stats.used_subtree;
  if (obs_enabled()) {
    RangeScanMetrics& metrics = range_scan_metrics();
    metrics.queries.add(1);
    metrics.rows_returned.add(local.rows_returned);
    metrics.rows_scanned.add(local.rows_scanned);
    metrics.runs_in_cover.add(local.runs_in_cover);
    metrics.runs_touched.add(local.runs_touched);
    metrics.nodes_visited.add(local.nodes_visited);
  }
  if (stats != nullptr) *stats = local;
}

std::vector<std::uint32_t> range_scan_full(const IndexColumnsView& view,
                                           const Box& box,
                                           RangeScanStats* stats) {
  std::vector<std::uint32_t> out;
  const std::uint64_t n = view.row_count();
  for (std::uint64_t row = 0; row < n; ++row) {
    if (box.contains(view.point_of_row(row))) {
      out.push_back(view.id_of_row(row));
    }
  }
  if (stats != nullptr) {
    *stats = RangeScanStats{};
    stats->rows_returned = out.size();
    stats->rows_scanned = n;
  }
  return out;
}

}  // namespace sfc
