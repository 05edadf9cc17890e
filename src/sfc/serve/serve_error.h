// Typed errors of the serving front end.
//
// Serving failures are part of the protocol, not exceptional states: an
// overloaded server *must* shed load, an expired query *must* fail fast, and
// clients react differently to each (retry with backoff on overload, give up
// or re-plan on timeout, reconnect elsewhere on stop).  Each condition is
// therefore its own sfc::Error subtype carrying the numbers a client policy
// needs — replay_trace's retry loop and the serve-bench failure accounting
// dispatch on these types, and anything *not* one of them is a real bug that
// propagates as-is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sfc/common/error.h"
#include "sfc/index/knn.h"

namespace sfc {

/// Base of every admission-control failure the server raises on purpose.
/// Engine errors (bad arguments, etc.) are NOT ServeErrors — they propagate
/// with their own types, so callers can tell shed load from broken queries.
class ServeError : public Error {
 public:
  explicit ServeError(const std::string& what) : Error(what) {}
};

/// The admission queue was at max_queue when the query arrived: backpressure.
/// Clients should back off and retry; the query was never admitted.
class ServerOverloadError : public ServeError {
 public:
  ServerOverloadError(std::uint64_t queue_depth, std::uint64_t max_queue)
      : ServeError("server overloaded: admission queue holds " +
                   std::to_string(queue_depth) + " queries (max_queue " +
                   std::to_string(max_queue) + ")"),
        queue_depth_(queue_depth),
        max_queue_(max_queue) {}

  std::uint64_t queue_depth() const { return queue_depth_; }
  std::uint64_t max_queue() const { return max_queue_; }

 private:
  std::uint64_t queue_depth_;
  std::uint64_t max_queue_;
};

/// The query's deadline elapsed while it was still queued; it was dropped at
/// batch formation instead of occupying a batch slot it could no longer use.
class ServerTimeoutError : public ServeError {
 public:
  ServerTimeoutError(std::uint64_t deadline_us, std::uint64_t waited_us)
      : ServeError("query deadline of " + std::to_string(deadline_us) +
                   " us expired after waiting " + std::to_string(waited_us) +
                   " us in the admission queue"),
        deadline_us_(deadline_us),
        waited_us_(waited_us) {}

  std::uint64_t deadline_us() const { return deadline_us_; }
  std::uint64_t waited_us() const { return waited_us_; }

 private:
  std::uint64_t deadline_us_;
  std::uint64_t waited_us_;
};

/// The server has been stopped (or is stopping): no new queries are
/// admitted.  In-flight queries at stop() time still drain and answer.
class ServerStoppedError : public ServeError {
 public:
  ServerStoppedError() : ServeError("IndexServer is stopped: query rejected") {}
};

/// IndexServer::reload failed: the candidate file did not validate (or could
/// not be opened, or every shard verified dead).  The previous generation is
/// untouched and keeps serving — a failed reload is an operator event, never
/// an outage.  `reason` carries the underlying StoreError text.
class ReloadError : public ServeError {
 public:
  ReloadError(const std::string& path, const std::string& reason)
      : ServeError("index reload of '" + path +
                   "' rejected (previous generation keeps serving): " + reason),
        path_(path),
        reason_(reason) {}

  const std::string& path() const { return path_; }
  const std::string& reason() const { return reason_; }

 private:
  std::string path_;
  std::string reason_;
};

/// A query in a degraded generation overlapped one or more dead shards.  The
/// live shards' answer is carried in the error — callers choose between a
/// partial answer and none — together with the dead shard ids, so a client
/// can report exactly which key ranges are unavailable.  Queries that do not
/// overlap any dead shard return normally even in a degraded generation.
class PartialResultError : public ServeError {
 public:
  PartialResultError(std::vector<std::uint32_t> dead_shards,
                     std::vector<std::uint32_t> partial_ids)
      : ServeError(describe(dead_shards, "range")),
        dead_shards_(std::move(dead_shards)),
        partial_ids_(std::move(partial_ids)) {}
  PartialResultError(std::vector<std::uint32_t> dead_shards,
                     std::vector<KnnNeighbor> partial_neighbors)
      : ServeError(describe(dead_shards, "knn")),
        dead_shards_(std::move(dead_shards)),
        partial_neighbors_(std::move(partial_neighbors)) {}

  /// Shards (by index) whose key range the query needed but which failed
  /// the degraded open's verification; sorted ascending.
  const std::vector<std::uint32_t>& dead_shards() const { return dead_shards_; }
  /// Live-shard range answer (row order over the live shards); empty for kNN.
  const std::vector<std::uint32_t>& partial_ids() const { return partial_ids_; }
  /// Live-shard kNN answer (may be fewer than k, and is *not* certified
  /// global — a dead shard could hold closer neighbors); empty for range.
  const std::vector<KnnNeighbor>& partial_neighbors() const {
    return partial_neighbors_;
  }

 private:
  static std::string describe(const std::vector<std::uint32_t>& dead,
                              const char* kind) {
    std::string ids;
    for (const std::uint32_t s : dead) {
      if (!ids.empty()) ids += ",";
      ids += std::to_string(s);
    }
    return std::string(kind) + " query overlaps " +
           std::to_string(dead.size()) +
           " dead shard(s) [" + ids + "]: partial result attached";
  }

  std::vector<std::uint32_t> dead_shards_;
  std::vector<std::uint32_t> partial_ids_;
  std::vector<KnnNeighbor> partial_neighbors_;
};

}  // namespace sfc
