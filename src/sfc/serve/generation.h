// Generation-managed index storage: the serving-continuity seam.
//
// Zero-downtime serving means an index file can be replaced while queries are
// in flight.  The mechanism is refcounted immutable generations: an
// IndexGeneration bundles one validated storage epoch — the MappedIndex, the
// ShardedIndex built over it, the per-shard liveness verdicts, and a
// monotonically increasing epoch id — behind a shared_ptr that in-flight
// batches pin for as long as they execute.  GenerationManager::reload
// validates a candidate file *fully* before anything changes, then swaps the
// active pointer; the old generation keeps serving every batch that already
// pinned it and unmaps exactly when its refcount reaches zero.  A failed
// validation throws a typed ReloadError and leaves the old generation active:
// a bad push is an operator event, never an outage.
//
// Degraded mode rides the same open path and the store's verification scan
// (MappedIndex::scan): instead of throwing its first finding, allow_degraded
// marks the shards of damaged rows dead (as long as the corruption is
// localizable — an unattributable mismatch still rejects the file), so a
// partially-damaged index serves full answers for queries that provably
// never needed the dead rows and typed PartialResultErrors for the rest.
// A damaged row is one whose key and point disagree; it kills the shards its
// true key can lie in, bounded by the intact rows around it, so no search
// over a corrupt column decides which rows a shard owns.  A degraded generation serves from a repaired
// view that never reads a dead shard's rows or the file's directory: the
// mapped ids and points, a key column copy in which every dead row's key is
// a dead shard's first key, and a directory rebuilt from that copy; queries
// exclude dead_key_ranges().  Reloading a repaired file
// resurrects the shards, because liveness is a property of the generation,
// not the server.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sfc/serve/sharded_index.h"
#include "sfc/store/index_store.h"

namespace sfc {

/// One immutable storage epoch: a validated index (mapped from a file, or
/// wrapping caller-owned storage) plus the shard table and per-shard
/// liveness built over it.  Never mutated after the factory returns, so any
/// number of batch executions may query it concurrently without
/// synchronization; the shared_ptr refcount is the only lifetime mechanism
/// (the mapping unmaps when the last pin drops).
class IndexGeneration {
 public:
  /// Opens and fully validates `path`.  With allow_degraded = false this is
  /// a strict open: any corruption throws what MappedIndex::open throws.
  /// With allow_degraded = true, corruption the scan can localize marks the
  /// shards it touches dead and the open succeeds degraded; corruption that
  /// cannot be attributed to a shard (an ids-column mismatch — ids carry no
  /// semantic invariant a row check could catch — intact rows out of key
  /// order, or a checksum mismatch no row check explains), or every shard
  /// dead, still throws.
  static std::shared_ptr<const IndexGeneration> open(const std::string& path,
                                                     int shard_bits,
                                                     std::uint64_t epoch,
                                                     bool allow_degraded);

  /// Wraps caller-owned storage (e.g. an in-memory PointIndex) as a fully
  /// live generation; the storage must outlive the generation.
  static std::shared_ptr<const IndexGeneration> wrap(IndexColumnsView view,
                                                     int shard_bits,
                                                     std::uint64_t epoch);

  std::uint64_t epoch() const { return epoch_; }
  /// The path this generation was opened from; empty for wrap().
  const std::string& path() const { return path_; }
  /// The shard table; its base() is the view every query runs on.
  const ShardedIndex& sharded() const { return *sharded_; }

  /// Per-shard liveness (1 = alive), indexed by shard.
  const std::vector<std::uint8_t>& shard_alive() const { return shard_alive_; }
  /// Per-shard verification failure (empty string for live shards).
  const std::vector<std::string>& shard_errors() const { return shard_errors_; }
  /// The dead shards, ascending, and their key ranges (parallel): the
  /// exclusion list every query of this generation runs with.
  const std::vector<std::uint32_t>& dead_shards() const { return dead_shards_; }
  const std::vector<KeyInterval>& dead_key_ranges() const {
    return dead_key_ranges_;
  }

 private:
  IndexGeneration() = default;

  std::uint64_t epoch_ = 0;
  std::string path_;
  // mapped_ and the repaired columns are declared before sharded_: its view
  // points into them, so it must be destroyed first (reverse declaration
  // order).
  std::optional<MappedIndex> mapped_;
  std::vector<index_t> live_keys_;       ///< degraded only
  std::vector<index_t> live_directory_;  ///< degraded only
  std::optional<ShardedIndex> sharded_;
  std::vector<std::uint8_t> shard_alive_;
  std::vector<std::string> shard_errors_;
  std::vector<std::uint32_t> dead_shards_;
  std::vector<KeyInterval> dead_key_ranges_;
};

/// The swap point: hands out the active generation and replaces it
/// atomically.  reload() does all validation *before* taking the swap lock,
/// so readers never observe a half-validated generation and a failed reload
/// provably cannot disturb the active one.  Epochs increase monotonically
/// across successful and failed reloads alike.
class GenerationManager {
 public:
  explicit GenerationManager(std::shared_ptr<const IndexGeneration> initial);

  /// The current generation; callers keep the returned shared_ptr for the
  /// duration of any use (it is the pin that defers unmap).
  std::shared_ptr<const IndexGeneration> active() const;

  /// Opens + validates `path` as a new generation and makes it active.
  /// Throws ReloadError on any failure, leaving the previous generation
  /// active and untouched.  Returns the new generation.
  std::shared_ptr<const IndexGeneration> reload(const std::string& path,
                                                int shard_bits,
                                                bool allow_degraded);

  std::uint64_t reloads() const;
  std::uint64_t failed_reloads() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const IndexGeneration> active_;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t reloads_ = 0;
  std::uint64_t failed_reloads_ = 0;
};

}  // namespace sfc
