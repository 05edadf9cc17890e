// Persistent on-disk index storage: versioned, checksummed, mmap-served.
//
// The north-star serving story is "build once, serve many processes": a
// PointIndex's columns are already flat arrays, so the on-disk format is a
// fixed header (magic, version, curve descriptor, universe, row count,
// column table with per-column FNV-1a checksums) followed by the four
// columns, each 64-byte aligned — see docs/index_format.md for the byte-level
// layout.  write_index_file streams a built index out; MappedIndex mmaps a
// file read-only, validates everything (magic, version, endianness, header
// checksum, column bounds, per-column checksums, key-order and directory
// consistency), reconstructs the exact curve from the persisted
// CurveDescriptor, and exposes the same IndexColumnsView the in-memory index
// exposes — queries through either storage are bit-identical by
// construction, because the engines only ever see the view.
//
// The format is *not* an interchange format: it fixes the native
// little-endian column layout (including Point's in-memory layout) so that
// serving can map columns without any translation, and it refuses to open
// files whose header disagrees with the running build's layout constants.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sfc/common/error.h"
#include "sfc/common/types.h"
#include "sfc/curves/curve_factory.h"
#include "sfc/index/columns_view.h"
#include "sfc/index/point_index.h"

namespace sfc {

/// Thrown on any index-file problem: unwritable path, short/truncated file,
/// bad magic or version, checksum mismatch, column table out of bounds, a
/// descriptor naming an unknown curve, or a universe mismatch.  Derives from
/// sfc::Error so serving drivers recover at the tool boundary.
class StoreError : public Error {
 public:
  explicit StoreError(const std::string& what) : Error(what) {}
};

/// A StoreError raised by a failing syscall on the write or open path (open,
/// write, fsync, rename, flock, mmap, mincore, pread, ...), carrying the
/// syscall name and errno so callers can distinguish a full disk from a
/// missing directory (or a concurrently-truncated file from a corrupt one)
/// programmatically.
class StoreIoError : public StoreError {
 public:
  StoreIoError(const std::string& sys_call, const std::string& path,
               int errno_value);

  /// The syscall that failed ("open", "write", "fsync", "close", "rename").
  const std::string& sys_call() const { return sys_call_; }
  int errno_value() const { return errno_value_; }

 private:
  std::string sys_call_;
  int errno_value_;
};

/// Current on-disk format version (header field `version`).
inline constexpr std::uint32_t kIndexFormatVersion = 1;

/// 64-bit FNV-1a over a byte range — the format's checksum primitive.
/// Chainable: pass the previous digest as `seed` to extend.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Serializes `index` to `path` (overwriting), persisting `descriptor` as
/// the curve identity.  The descriptor's universe must match the index's
/// curve (throws StoreError otherwise); it is what MappedIndex::open
/// reconstructs the curve from, so it must name the curve the index was
/// built with — "hilbert d=2 side=1024 seed=1" etc.
///
/// Crash-safe: the file is streamed to `path + ".tmp"`, fsync'd, and
/// atomically renamed over `path` (then the parent directory is fsync'd), so
/// readers only ever observe either the previous complete file or the new
/// complete file — never a torn write.  A crash mid-write leaves at worst a
/// stale `.tmp` alongside an intact `path`.  Every failing syscall raises a
/// typed StoreIoError (and the temp file is unlinked best-effort).
void write_index_file(const std::string& path, const PointIndex& index,
                      const CurveDescriptor& descriptor);

struct MappedIndexOptions {
  /// Run the verification scan (MappedIndex::scan) at open and throw for
  /// its first finding.  Its key<->point check ties the persisted curve
  /// identity to the data, so a tampered family, seed or universe cannot
  /// serve silently wrong answers.  Serving processes that reopen a file they
  /// just validated may switch this off; header and bounds validation always
  /// runs.
  bool verify = true;
  /// Hold an advisory shared lock (flock LOCK_SH) on the file for the
  /// lifetime of the mapping.  Cooperating writers must never truncate or
  /// rewrite a read-locked path in place (write_index_file never does — it
  /// renames a complete temp file over the path, which leaves existing
  /// mappings on the old inode intact); a process that *would* mutate in
  /// place can take LOCK_EX and will see the readers.  Open fails with a
  /// typed StoreIoError("flock") if the file is exclusively locked.
  bool lock = true;
};

/// A row whose stored key is not the key its point re-encodes to.
struct DamagedRow {
  /// The key of a point with the wrong dimension or outside the universe.
  static constexpr index_t kNoKey = ~index_t{0};
  std::uint64_t row = 0;
  index_t stored = 0;   ///< the key column's word
  index_t encoded = 0;  ///< the point's key, or kNoKey
};

/// What one verification scan of a mapped index found (MappedIndex::scan).
/// A row is intact when its point has the curve's dimension, lies in the
/// universe and re-encodes to its stored key (so no intact key lies outside
/// the universe).  A verified open throws for the first finding; a degraded
/// IndexGeneration::open localizes the same findings to shards.
struct IndexDamage {
  /// Bit c set: column c's FNV-1a digest disagrees with the header (bit 0
  /// keys, bit 1 ids, bit 2 points, bit 3 directory).
  std::uint32_t checksum_mask = 0;
  std::vector<DamagedRow> damaged_rows;  ///< ascending
  /// The first intact row whose key sorts below an earlier intact row's.
  std::optional<std::uint64_t> unsorted_row;
  /// Blocks whose directory entry is not their last row's key, ascending.
  std::vector<std::uint64_t> directory_blocks;

  bool clean() const {
    return checksum_mask == 0 && damaged_rows.empty() && !unsorted_row &&
           directory_blocks.empty();
  }
};

/// A read-only, mmap-backed index.  Owns the mapping and the curve
/// reconstructed from the persisted descriptor; exposes the storage-agnostic
/// IndexColumnsView that RangeScanEngine / KnnEngine / the executors and the
/// serve front end query.  Movable, not copyable; views are valid while the
/// MappedIndex is alive and unmoved.
class MappedIndex {
 public:
  /// Maps and validates `path`; throws StoreError on any mismatch.
  ///
  /// The open is SIGBUS-hardened: after mmap the mapping is pre-faulted (an
  /// mincore page-table walk plus a pread of the final byte) and the file
  /// size is re-checked, so a file replaced or truncated between the first
  /// stat and validation yields a typed StoreIoError instead of a crash when
  /// validation reads the columns.  With options.lock (the default) the fd
  /// stays open holding flock LOCK_SH until the mapping is destroyed, so
  /// cooperating writers can detect live readers.
  static MappedIndex open(const std::string& path,
                          const MappedIndexOptions& options = {});

  MappedIndex(MappedIndex&& other) noexcept;
  MappedIndex& operator=(MappedIndex&& other) noexcept;
  MappedIndex(const MappedIndex&) = delete;
  MappedIndex& operator=(const MappedIndex&) = delete;
  ~MappedIndex();

  /// The persisted curve identity the index was opened with.
  const CurveDescriptor& descriptor() const { return descriptor_; }
  /// The reconstructed curve (owned by this object).
  const SpaceFillingCurve& curve() const { return *curve_; }

  std::uint64_t row_count() const { return view_.row_count(); }
  std::uint32_t block_rows() const { return view_.block_rows(); }
  std::uint64_t file_bytes() const { return map_bytes_; }

  /// The columns view over the mapped file — what engines query.
  const IndexColumnsView& view() const { return view_; }
  operator IndexColumnsView() const { return view_; }  // NOLINT

  /// The path this mapping was opened from.
  const std::string& path() const { return path_; }

  /// The verification scan: one streaming pass over the mapped columns that
  /// recomputes the column checksums, re-encodes every point, and checks key
  /// order and the block directory.  Allocates only for findings.
  IndexDamage scan() const;

  /// Throws the StoreError a verified open raises for `damage`'s first
  /// finding, in the order checksums, key range and order, directory, rows;
  /// returns when `damage` is clean.
  void throw_if_damaged(const IndexDamage& damage) const;

  /// Why `row` is damaged, worded as a verified open reports it.
  std::string describe(const DamagedRow& row) const;

  /// Byte offset / length of column `c` (0 keys, 1 ids, 2 points,
  /// 3 directory) within the mapped file, as recorded in the header.
  std::uint64_t column_offset(int c) const { return column_offset_[c]; }
  std::uint64_t column_bytes(int c) const { return column_bytes_[c]; }

 private:
  MappedIndex() = default;

  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  int fd_ = -1;  ///< kept open for the mapping's lifetime (holds the flock)
  std::string path_;
  std::uint64_t column_offset_[4] = {0, 0, 0, 0};
  std::uint64_t column_bytes_[4] = {0, 0, 0, 0};
  std::uint64_t column_checksum_[4] = {0, 0, 0, 0};
  CurvePtr curve_;
  CurveDescriptor descriptor_;
  IndexColumnsView view_;
};

/// Test-only crash injection for the write path.  When `write_kill_countdown`
/// is >= 0, every write-path syscall write_index_file is about to issue
/// decrements it first; the call that drives it below zero terminates the
/// process immediately with _exit(kKillExitCode) — simulating a crash at an
/// exact, seedable syscall boundary.  Forked chaos/crash tests set the
/// countdown in the child, call write_index_file, and let the parent assert
/// the target path still opens clean (old or new complete content, never
/// torn).  Default -1 = disabled; production code never touches this.
namespace store_testing {
extern std::atomic<int> write_kill_countdown;
inline constexpr int kKillExitCode = 42;
}  // namespace store_testing

}  // namespace sfc
