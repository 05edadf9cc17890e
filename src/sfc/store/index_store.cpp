#include "sfc/store/index_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sfc/curves/curve_error.h"
#include "sfc/obs/metrics.h"
#include "sfc/obs/span_trace.h"

namespace sfc {

namespace {

struct StoreMetrics {
  MetricsRegistry::Counter writes;
  MetricsRegistry::Counter opens;
  MetricsRegistry::Counter bytes_mapped;
  MetricsRegistry::Histogram write_us;
  MetricsRegistry::Histogram open_us;
  MetricsRegistry::Histogram verify_us;
};

StoreMetrics& store_metrics() {
  static StoreMetrics metrics{
      MetricsRegistry::global().counter("store.writes"),
      MetricsRegistry::global().counter("store.opens"),
      MetricsRegistry::global().counter("store.bytes_mapped"),
      MetricsRegistry::global().histogram("store.write_us"),
      MetricsRegistry::global().histogram("store.open_us"),
      MetricsRegistry::global().histogram("store.verify_us"),
  };
  return metrics;
}

// The mapped columns are served as raw spans, so the format pins the native
// layout of every element type.  A platform where these do not hold cannot
// read (or produce) version-1 files; the header's endian tag and point_bytes
// field turn such mismatches into recoverable StoreErrors.
static_assert(std::is_trivially_copyable_v<Point>);
static_assert(std::is_standard_layout_v<Point>);
static_assert(sizeof(Point) == 36, "on-disk point layout (v1) changed");
static_assert(sizeof(index_t) == 8 && sizeof(coord_t) == 4);

constexpr char kMagic[8] = {'S', 'F', 'C', 'I', 'D', 'X', '0', '1'};
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::uint64_t kColumnAlign = 64;
constexpr std::size_t kFamilyBytes = 24;

enum Column : std::size_t { kKeys = 0, kIds, kPoints, kDirectory, kColumns };

struct ColumnEntry {
  std::uint64_t offset = 0;    // byte offset from file start, 64-aligned
  std::uint64_t bytes = 0;     // payload bytes (excluding padding)
  std::uint64_t checksum = 0;  // fnv1a64 over the payload bytes
};

struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint32_t header_bytes;
  std::uint32_t point_bytes;
  std::uint32_t curve_dim;
  std::uint32_t curve_side;
  std::uint64_t curve_seed;
  std::uint64_t row_count;
  std::uint32_t block_rows;
  std::uint32_t reserved;
  char curve_family[kFamilyBytes];  // NUL-padded canonical family name
  ColumnEntry columns[kColumns];
  std::uint64_t header_checksum;  // fnv1a64 over the header, this field = 0
};

static_assert(std::is_trivially_copyable_v<Header>);
static_assert(sizeof(Header) == 184, "on-disk header layout (v1) changed");

std::uint64_t align_up(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) / align * align;
}

std::uint64_t header_digest(Header header) {
  header.header_checksum = 0;
  return fnv1a64(&header, sizeof(header));
}

/// The four column payload sizes of an index with `rows` rows.
void column_sizes(std::uint64_t rows, std::uint32_t block_rows,
                  std::uint64_t sizes[kColumns]) {
  const std::uint64_t blocks =
      block_rows == 0 ? 0 : (rows + block_rows - 1) / block_rows;
  sizes[kKeys] = rows * sizeof(index_t);
  sizes[kIds] = rows * sizeof(std::uint32_t);
  sizes[kPoints] = rows * sizeof(Point);
  sizes[kDirectory] = blocks * sizeof(index_t);
}

/// A validated column of the mapping at `map` as a typed span.
template <typename T>
std::span<const T> column_span(const void* map, const ColumnEntry& column) {
  return {reinterpret_cast<const T*>(static_cast<const unsigned char*>(map) +
                                     column.offset),
          column.bytes / sizeof(T)};
}

}  // namespace

namespace store_testing {
std::atomic<int> write_kill_countdown{-1};
}  // namespace store_testing

namespace {

// Crash injection point: called immediately before every write-path syscall.
// A countdown of k lets k syscalls through and terminates the process at the
// (k+1)-th, so a seeded loop over k covers a crash at every syscall boundary
// of the write protocol deterministically.
void maybe_kill() {
  int v = store_testing::write_kill_countdown.load(std::memory_order_relaxed);
  while (v >= 0) {
    if (v == 0) ::_exit(store_testing::kKillExitCode);
    if (store_testing::write_kill_countdown.compare_exchange_weak(
            v, v - 1, std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

StoreIoError::StoreIoError(const std::string& sys_call,
                           const std::string& path, int errno_value)
    : StoreError("index io: " + sys_call + "('" + path +
                 "') failed: " + std::strerror(errno_value)),
      sys_call_(sys_call),
      errno_value_(errno_value) {}

void write_index_file(const std::string& path, const PointIndex& index,
                      const CurveDescriptor& descriptor) {
  const double write_start_us = trace_now_us();
  const Universe& u = index.curve().universe();
  if (descriptor.dim != u.dim() || descriptor.side != u.side()) {
    throw StoreError("index write: descriptor universe (d=" +
                     std::to_string(descriptor.dim) + " side=" +
                     std::to_string(descriptor.side) +
                     ") does not match the index's curve (d=" +
                     std::to_string(u.dim()) + " side=" +
                     std::to_string(u.side()) + ")");
  }
  if (descriptor.family.size() + 1 > kFamilyBytes) {
    throw StoreError("index write: curve family name '" + descriptor.family +
                     "' exceeds " + std::to_string(kFamilyBytes - 1) +
                     " bytes");
  }

  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kIndexFormatVersion;
  header.endian_tag = kEndianTag;
  header.header_bytes = sizeof(Header);
  header.point_bytes = sizeof(Point);
  header.curve_dim = static_cast<std::uint32_t>(descriptor.dim);
  header.curve_side = descriptor.side;
  header.curve_seed = descriptor.seed;
  header.row_count = index.row_count();
  header.block_rows = index.block_rows();
  std::memcpy(header.curve_family, descriptor.family.c_str(),
              descriptor.family.size() + 1);

  const void* payloads[kColumns] = {
      index.keys().data(), index.ids().data(), index.points().data(),
      index.view().block_last_key().data()};
  std::uint64_t sizes[kColumns];
  column_sizes(index.row_count(), index.block_rows(), sizes);

  std::uint64_t offset = align_up(sizeof(Header), kColumnAlign);
  for (std::size_t c = 0; c < kColumns; ++c) {
    header.columns[c].offset = offset;
    header.columns[c].bytes = sizes[c];
    header.columns[c].checksum = fnv1a64(payloads[c], sizes[c]);
    offset = align_up(offset + sizes[c], kColumnAlign);
  }
  header.header_checksum = header_digest(header);

  // Crash-safe protocol: stream everything into `path + ".tmp"`, fsync the
  // file, atomically rename over `path`, then fsync the parent directory so
  // the rename itself is durable.  A reader can therefore only ever map the
  // previous complete file or the new complete file; a crash at any point
  // leaves at worst a stale `.tmp` that MappedIndex::open never looks at
  // (and that is itself rejected if opened torn).
  const std::string tmp = path + ".tmp";
  maybe_kill();
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw StoreIoError("open", tmp, errno);

  const auto fail = [&](const char* sys_call) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());  // best effort: do not leave a torn temp behind
    throw StoreIoError(sys_call, tmp, err);
  };
  const auto write_all = [&](const void* data, std::uint64_t bytes) {
    const auto* at = static_cast<const char*>(data);
    while (bytes > 0) {
      maybe_kill();
      const ::ssize_t wrote = ::write(fd, at, bytes);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        fail("write");
      }
      at += wrote;
      bytes -= static_cast<std::uint64_t>(wrote);
    }
  };

  const char zeros[kColumnAlign] = {};
  std::uint64_t written = 0;
  const auto emit = [&](const void* data, std::uint64_t bytes) {
    write_all(data, bytes);
    written += bytes;
  };
  const auto pad_to = [&](std::uint64_t target) {
    while (written < target) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(target - written, sizeof(zeros));
      emit(zeros, chunk);
    }
  };
  emit(&header, sizeof(header));
  for (std::size_t c = 0; c < kColumns; ++c) {
    pad_to(header.columns[c].offset);
    emit(payloads[c], sizes[c]);
  }
  maybe_kill();
  if (::fsync(fd) != 0) fail("fsync");
  maybe_kill();
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw StoreIoError("close", tmp, err);
  }
  maybe_kill();
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw StoreIoError("rename", path, err);
  }
  // Durable rename: fsync the directory entry.  Some filesystems reject
  // directory fsync (EINVAL) — treat that as best-effort, everything else as
  // a real error.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  maybe_kill();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) throw StoreIoError("open", dir, errno);
  maybe_kill();
  if (::fsync(dir_fd) != 0 && errno != EINVAL) {
    const int err = errno;
    ::close(dir_fd);
    throw StoreIoError("fsync", dir, err);
  }
  ::close(dir_fd);
  if (obs_enabled()) {
    const double write_us = trace_now_us() - write_start_us;
    StoreMetrics& metrics = store_metrics();
    metrics.writes.add(1);
    metrics.write_us.record_us(write_us);
    TraceSpan span;
    span.name = "store_write";
    span.category = "store";
    span.start_us = write_start_us;
    span.dur_us = write_us;
    span.tid = trace_thread_id();
    span.add_arg("rows", index.row_count());
    span.add_arg("bytes", written);
    TraceRing::global().record(span);
  }
}

MappedIndex MappedIndex::open(const std::string& path,
                              const MappedIndexOptions& options) {
  const double open_start_us = trace_now_us();
  // `mapped` owns fd + mapping from the moment they exist, so every throw
  // below (validation failures included) releases them through the destructor.
  MappedIndex mapped;
  mapped.path_ = path;
  mapped.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (mapped.fd_ < 0) throw StoreIoError("open", path, errno);
  if (options.lock && ::flock(mapped.fd_, LOCK_SH | LOCK_NB) != 0) {
    // EWOULDBLOCK = somebody holds LOCK_EX (a would-be in-place mutator):
    // refuse to map rather than race it.  The lock rides the fd until close.
    throw StoreIoError("flock", path, errno);
  }
  struct stat st{};
  if (::fstat(mapped.fd_, &st) != 0) throw StoreIoError("fstat", path, errno);
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < sizeof(Header)) {
    throw StoreError("index open: '" + path + "' is " +
                     std::to_string(file_bytes) +
                     " bytes — shorter than the " +
                     std::to_string(sizeof(Header)) + "-byte header");
  }
  void* map =
      ::mmap(nullptr, file_bytes, PROT_READ, MAP_SHARED, mapped.fd_, 0);
  if (map == MAP_FAILED) throw StoreIoError("mmap", path, errno);
  mapped.map_ = map;
  mapped.map_bytes_ = file_bytes;

  // SIGBUS hardening: validation below reads every mapped byte, and touching
  // a page past a concurrently-shrunk file's end is a SIGBUS crash, not an
  // error return.  Our own writers never shrink a live path (rename-based
  // replace keeps the old inode intact) and the flock above holds off
  // cooperating in-place mutators, so the only remaining hazard is a file
  // that was already short or is being resized by a non-cooperating writer —
  // catch it with syscalls that *do* return errors: an mincore page-table
  // walk over the whole range, a pread of the final byte (EOF = the inode
  // lost that byte), and a size re-check on the same fd.
  {
    const long page_size = ::sysconf(_SC_PAGESIZE);
    const std::size_t pages =
        (file_bytes + static_cast<std::size_t>(page_size) - 1) /
        static_cast<std::size_t>(page_size);
    std::vector<unsigned char> resident(pages);
    if (::mincore(map, file_bytes, resident.data()) != 0) {
      throw StoreIoError("mincore", path, errno);
    }
    char last = 0;
    const ::ssize_t got = ::pread(mapped.fd_, &last, 1,
                                  static_cast<::off_t>(file_bytes - 1));
    if (got < 0) throw StoreIoError("pread", path, errno);
    if (got != 1) throw StoreIoError("pread", path, EIO);
    struct stat again{};
    if (::fstat(mapped.fd_, &again) != 0) {
      throw StoreIoError("fstat", path, errno);
    }
    if (static_cast<std::uint64_t>(again.st_size) != file_bytes) {
      throw StoreError("index open: '" + path +
                       "' was resized while being mapped (" +
                       std::to_string(file_bytes) + " -> " +
                       std::to_string(again.st_size) +
                       " bytes) — concurrent in-place writer?");
    }
  }

  const auto fail = [&](const std::string& what) -> void {
    throw StoreError("index open: '" + path + "': " + what);
  };

  Header header;
  std::memcpy(&header, map, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic — not an SFC index file");
  }
  if (header.endian_tag != kEndianTag) {
    fail("endianness mismatch — file was written on an incompatible host");
  }
  if (header.version != kIndexFormatVersion) {
    fail("format version " + std::to_string(header.version) +
         " unsupported (this build reads version " +
         std::to_string(kIndexFormatVersion) + ")");
  }
  if (header.header_bytes != sizeof(Header)) {
    fail("header size " + std::to_string(header.header_bytes) +
         " != expected " + std::to_string(sizeof(Header)));
  }
  if (header.point_bytes != sizeof(Point)) {
    fail("point layout " + std::to_string(header.point_bytes) +
         " bytes != this build's " + std::to_string(sizeof(Point)));
  }
  if (header_digest(header) != header.header_checksum) {
    fail("header checksum mismatch — corrupt or truncated header");
  }
  if (header.block_rows == 0) fail("block_rows must be >= 1");
  if (header.curve_family[kFamilyBytes - 1] != '\0') {
    fail("curve family name is not NUL-terminated");
  }

  std::uint64_t sizes[kColumns];
  column_sizes(header.row_count, header.block_rows, sizes);
  for (std::size_t c = 0; c < kColumns; ++c) {
    const ColumnEntry& column = header.columns[c];
    if (column.bytes != sizes[c]) {
      fail("column " + std::to_string(c) + " holds " +
           std::to_string(column.bytes) + " bytes, expected " +
           std::to_string(sizes[c]) + " for " +
           std::to_string(header.row_count) + " rows");
    }
    if (column.offset % alignof(Point) != 0 ||
        column.offset % alignof(index_t) != 0) {
      fail("column " + std::to_string(c) + " offset " +
           std::to_string(column.offset) + " is misaligned");
    }
    if (column.offset > file_bytes || column.bytes > file_bytes - column.offset) {
      fail("column " + std::to_string(c) + " [" +
           std::to_string(column.offset) + ", +" +
           std::to_string(column.bytes) + ") exceeds the " +
           std::to_string(file_bytes) + "-byte file — truncated?");
    }
  }

  for (std::size_t c = 0; c < kColumns; ++c) {
    mapped.column_offset_[c] = header.columns[c].offset;
    mapped.column_bytes_[c] = header.columns[c].bytes;
    mapped.column_checksum_[c] = header.columns[c].checksum;
  }

  mapped.descriptor_.family = header.curve_family;
  mapped.descriptor_.dim = static_cast<int>(header.curve_dim);
  mapped.descriptor_.side = header.curve_side;
  mapped.descriptor_.seed = header.curve_seed;
  try {
    mapped.curve_ = make_curve(mapped.descriptor_);
  } catch (const CurveArgumentError& error) {
    fail(std::string("persisted curve descriptor rejected: ") + error.what());
  }

  mapped.view_ = IndexColumnsView(
      *mapped.curve_, header.block_rows,
      column_span<index_t>(map, header.columns[kKeys]),
      column_span<std::uint32_t>(map, header.columns[kIds]),
      column_span<Point>(map, header.columns[kPoints]),
      column_span<index_t>(map, header.columns[kDirectory]));
  if (options.verify) mapped.throw_if_damaged(mapped.scan());
  if (obs_enabled()) {
    const double end_us = trace_now_us();
    StoreMetrics& metrics = store_metrics();
    metrics.opens.add(1);
    metrics.bytes_mapped.add(file_bytes);
    metrics.open_us.record_us(end_us - open_start_us);
    TraceSpan span;
    span.name = "store_open";
    span.category = "store";
    span.start_us = open_start_us;
    span.dur_us = end_us - open_start_us;
    span.tid = trace_thread_id();
    span.add_arg("rows", header.row_count);
    span.add_arg("bytes", file_bytes);
    span.add_arg("verified", options.verify ? std::uint64_t{1} : std::uint64_t{0});
    TraceRing::global().record(span);
  }
  return mapped;
}

IndexDamage MappedIndex::scan() const {
  const double start_us = trace_now_us();
  IndexDamage damage;
  const auto* base = static_cast<const unsigned char*>(map_);
  for (std::size_t c = 0; c < kColumns; ++c) {
    if (fnv1a64(base + column_offset_[c], column_bytes_[c]) !=
        column_checksum_[c]) {
      damage.checksum_mask |= 1u << c;
    }
  }

  // Re-encode the points chunk by chunk; a chunk holding a malformed point
  // encodes row by row, so the curve only ever sees in-universe cells.
  const Universe& u = curve_->universe();
  const std::span<const index_t> keys = view_.keys();
  const std::span<const Point> points = view_.points();
  const std::uint64_t rows = keys.size();
  constexpr std::uint64_t kChunk = 4096;
  std::vector<index_t> encoded(std::min<std::uint64_t>(rows, kChunk));
  index_t last_intact = 0;
  for (std::uint64_t at = 0; at < rows; at += kChunk) {
    const std::uint64_t n = std::min<std::uint64_t>(kChunk, rows - at);
    const std::span<const Point> chunk = points.subspan(at, n);
    if (std::all_of(chunk.begin(), chunk.end(),
                    [&](const Point& p) { return u.contains(p); })) {
      curve_->index_of_batch(chunk, std::span<index_t>(encoded.data(), n));
    } else {
      for (std::uint64_t i = 0; i < n; ++i) {
        encoded[i] = u.contains(chunk[i]) ? curve_->index_of(chunk[i])
                                          : DamagedRow::kNoKey;
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const index_t key = keys[at + i];
      if (key != encoded[i] || key == DamagedRow::kNoKey) {
        damage.damaged_rows.push_back(DamagedRow{at + i, key, encoded[i]});
        continue;
      }
      if (key < last_intact && !damage.unsorted_row) {
        damage.unsorted_row = at + i;
      }
      last_intact = key;
    }
  }

  const std::span<const index_t> directory = view_.block_last_key();
  for (std::uint64_t b = 0; b < directory.size(); ++b) {
    const std::uint64_t end = std::min<std::uint64_t>(
        (b + 1) * std::uint64_t{view_.block_rows()}, rows);
    if (directory[b] != keys[end - 1]) damage.directory_blocks.push_back(b);
  }
  if (obs_enabled()) {
    store_metrics().verify_us.record_us(trace_now_us() - start_us);
  }
  return damage;
}

void MappedIndex::throw_if_damaged(const IndexDamage& damage) const {
  const auto fail = [&](const std::string& what) {
    throw StoreError("index open: '" + path_ + "': " + what);
  };
  if (damage.checksum_mask != 0) {
    fail("column " + std::to_string(std::countr_zero(damage.checksum_mask)) +
         " checksum mismatch — corrupt data");
  }
  const index_t cells = curve_->universe().cell_count();
  const auto out_of_universe =
      std::ranges::find_if(damage.damaged_rows, [&](const DamagedRow& d) {
        return d.stored >= cells;
      });
  if (out_of_universe != damage.damaged_rows.end() &&
      (!damage.unsorted_row || out_of_universe->row < *damage.unsorted_row)) {
    fail("row " + std::to_string(out_of_universe->row) + " key " +
         std::to_string(out_of_universe->stored) + " outside the " +
         std::to_string(cells) + "-cell universe");
  }
  if (damage.unsorted_row) {
    fail("key column not sorted at row " +
         std::to_string(*damage.unsorted_row));
  }
  if (!damage.directory_blocks.empty()) {
    fail("block directory entry " +
         std::to_string(damage.directory_blocks.front()) +
         " disagrees with the key column");
  }
  if (!damage.damaged_rows.empty()) fail(describe(damage.damaged_rows.front()));
}

std::string MappedIndex::describe(const DamagedRow& d) const {
  const Universe& u = curve_->universe();
  const std::string row = "row " + std::to_string(d.row);
  const Point& p = view_.point_of_row(d.row);
  if (p.dim() != u.dim()) {
    return row + " point dimension " + std::to_string(p.dim()) +
           " != curve dimension " + std::to_string(u.dim());
  }
  if (d.encoded == DamagedRow::kNoKey) {
    return row + " point outside the curve universe";
  }
  return row + " key " + std::to_string(d.stored) +
         " does not re-encode from its point (curve gives " +
         std::to_string(d.encoded) + ") — data and curve descriptor disagree";
}

MappedIndex::MappedIndex(MappedIndex&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_bytes_(std::exchange(other.map_bytes_, 0)),
      fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      curve_(std::move(other.curve_)),
      descriptor_(std::move(other.descriptor_)),
      view_(other.view_) {
  for (std::size_t c = 0; c < kColumns; ++c) {
    column_offset_[c] = other.column_offset_[c];
    column_bytes_[c] = other.column_bytes_[c];
    column_checksum_[c] = other.column_checksum_[c];
  }
}

MappedIndex& MappedIndex::operator=(MappedIndex&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    if (fd_ >= 0) ::close(fd_);
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    for (std::size_t c = 0; c < kColumns; ++c) {
      column_offset_[c] = other.column_offset_[c];
      column_bytes_[c] = other.column_bytes_[c];
      column_checksum_[c] = other.column_checksum_[c];
    }
    curve_ = std::move(other.curve_);
    descriptor_ = std::move(other.descriptor_);
    view_ = other.view_;
  }
  return *this;
}

MappedIndex::~MappedIndex() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  if (fd_ >= 0) ::close(fd_);  // releases the advisory lock
}

}  // namespace sfc
