#include "sfc/serve/generation.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "sfc/serve/serve_error.h"

namespace sfc {

namespace {

// Column indices of MappedIndex::verify_column_checksums()'s bitmask.
constexpr std::uint32_t kKeysBit = 1u << 0;
constexpr std::uint32_t kIdsBit = 1u << 1;
constexpr std::uint32_t kPointsBit = 1u << 2;
constexpr std::uint32_t kDirectoryBit = 1u << 3;

/// Marks a key that is not one: a malformed or out-of-universe point's key.
constexpr index_t kNoKey = std::numeric_limits<index_t>::max();

/// Why row `row` is damaged: its stored key and its point's key disagree.
std::string damage_note(std::uint64_t row, index_t stored, index_t encoded) {
  return "row " + std::to_string(row) + " key " + std::to_string(stored) +
         (encoded == kNoKey
              ? " beside a point outside the curve universe"
              : " does not re-encode from its point (curve gives " +
                    std::to_string(encoded) + ")");
}

}  // namespace

std::shared_ptr<const IndexGeneration> IndexGeneration::open(
    const std::string& path, int shard_bits, std::uint64_t epoch,
    bool allow_degraded) {
  std::shared_ptr<IndexGeneration> gen(new IndexGeneration());
  gen->epoch_ = epoch;
  gen->path_ = path;

  if (!allow_degraded) {
    // Strict open: the store layer's full validation, any corruption throws.
    gen->mapped_.emplace(MappedIndex::open(path, {.verify = true}));
    gen->sharded_.emplace(gen->mapped_->view(), shard_bits);
    gen->shard_alive_.assign(gen->sharded_->shard_count(), 1);
    gen->shard_errors_.assign(gen->sharded_->shard_count(), std::string());
    return gen;
  }

  // Degraded open: structural validation only (header, bounds, descriptor —
  // anything failing there makes the whole file unusable), then localize.
  gen->mapped_.emplace(MappedIndex::open(path, {.verify = false}));
  const std::uint32_t mask = gen->mapped_->verify_column_checksums();
  if (mask & kIdsBit) {
    // The ids column has no semantic invariant a per-shard check could
    // verify (any permutation of input positions is plausible), so its
    // corruption cannot be localized — serving would risk silently wrong
    // ids.  Reject the file outright.
    throw StoreError("index open: '" + path +
                     "': ids column checksum mismatch — not localizable to "
                     "a shard, refusing degraded open");
  }

  // Localize row by row.  A row is intact when its point lies in the
  // universe and re-encodes to its key; intact rows must ascend, or the
  // damage is not attributable.  A damaged row's true key lies between the
  // keys of the intact rows around it, and it is the stored key when the
  // key column's checksum holds, the point's key when the points column's
  // does, and either one otherwise.  The shards of the candidates that fit
  // between the intact keys die, or every shard of that gap when none fits.
  // Nothing here searches the key column or the file's directory, so no
  // corrupt word can move rows from one shard to another.
  const IndexColumnsView file = gen->mapped_->view();
  const SpaceFillingCurve& curve = file.curve();
  const Universe& u = curve.universe();
  const std::span<const index_t> keys = file.keys();
  const std::span<const Point> points = file.points();
  const std::uint64_t rows = keys.size();
  // Only the key-range table is used, and it depends on the curve alone.
  const ShardedIndex layout(
      IndexColumnsView(curve, file.block_rows(), {}, {}, {}, {}), shard_bits);
  const std::size_t count = layout.shard_count();
  gen->shard_alive_.assign(count, 1);
  gen->shard_errors_.assign(count, std::string());

  std::size_t dead_count = 0;
  const auto mark_dead = [&](std::size_t s, const auto& why) {
    if (gen->shard_alive_[s] == 0) return;
    gen->shard_alive_[s] = 0;
    gen->shard_errors_[s] = why();
    ++dead_count;
  };

  struct Damaged {
    std::uint64_t row;
    index_t stored;
    index_t encoded;
    std::size_t first_dead = 0;  ///< lowest shard the row killed
  };
  std::vector<Damaged> damaged;  // ascending by row
  std::size_t resolved = 0;      // damaged[resolved..] await the next intact key
  index_t gap_lo = 0;            // key of the last intact row
  const bool keys_sound = (mask & kKeysBit) == 0;
  const bool points_sound = (mask & kPointsBit) == 0;
  const auto close_gap = [&](index_t gap_hi) {
    for (; resolved < damaged.size(); ++resolved) {
      Damaged& d = damaged[resolved];
      const auto why = [&] { return damage_note(d.row, d.stored, d.encoded); };
      d.first_dead = count;
      for (const index_t key : {keys_sound || !points_sound ? d.stored : kNoKey,
                                keys_sound ? kNoKey : d.encoded}) {
        if (key < gap_lo || key > gap_hi) continue;
        const std::size_t s = layout.shard_of_key(key);
        mark_dead(s, why);
        d.first_dead = std::min(d.first_dead, s);
      }
      if (d.first_dead == count) {
        d.first_dead = layout.shard_of_key(gap_lo);
        for (std::size_t s = d.first_dead; s <= layout.shard_of_key(gap_hi);
             ++s) {
          mark_dead(s, why);
        }
      }
    }
  };

  constexpr std::uint64_t kVerifyChunk = 4096;
  std::vector<index_t> encoded(std::min<std::uint64_t>(rows, kVerifyChunk));
  for (std::uint64_t at = 0; at < rows; at += kVerifyChunk) {
    const std::uint64_t n = std::min<std::uint64_t>(kVerifyChunk, rows - at);
    const std::span<const Point> chunk = points.subspan(at, n);
    if (std::all_of(chunk.begin(), chunk.end(),
                    [&](const Point& p) { return u.contains(p); })) {
      curve.index_of_batch(chunk, std::span<index_t>(encoded.data(), n));
    } else {
      for (std::uint64_t i = 0; i < n; ++i) {
        encoded[i] = u.contains(chunk[i]) ? curve.index_of(chunk[i]) : kNoKey;
      }
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const index_t key = keys[at + i];
      if (key != encoded[i] || key == kNoKey) {
        damaged.push_back(Damaged{at + i, key, encoded[i]});
        continue;
      }
      if (key < gap_lo) {
        throw StoreError("index open: '" + path + "': intact row " +
                         std::to_string(at + i) +
                         " sorts below an earlier intact row, not "
                         "localizable to a shard, refusing degraded open");
      }
      close_gap(key);
      gap_lo = key;
    }
  }
  close_gap(u.cell_count() - 1);

  // A mismatch in the file's block directory beside an intact row marks that
  // row's shard: that is where the disagreeing key lives.  (A damaged row's
  // shards are dead already.)
  const std::span<const index_t> directory = file.block_last_key();
  for (std::uint64_t b = 0; b < directory.size(); ++b) {
    const std::uint64_t end = std::min<std::uint64_t>(
        (b + 1) * std::uint64_t{file.block_rows()}, rows);
    if (end == 0) break;
    if (directory[b] != keys[end - 1] &&
        !std::ranges::binary_search(damaged, end - 1, {}, &Damaged::row)) {
      mark_dead(layout.shard_of_key(keys[end - 1]), [&] {
        return "global directory entry " + std::to_string(b) +
               " disagrees with the key column";
      });
    }
  }

  if (dead_count == count && count > 0) {
    throw StoreError("index open: '" + path +
                     "': every shard failed verification (first: " +
                     gen->shard_errors_[0] + ")");
  }
  if (mask != 0 && dead_count == 0) {
    // A checksum disagrees but no shard check explains it — either the
    // recorded checksum itself is corrupt or the corruption hides where the
    // semantic checks cannot see it.  Unattributable = unserveable.
    throw StoreError("index open: '" + path + "': column checksum mismatch " +
                     "(mask " + std::to_string(mask) +
                     ") not localizable to any shard, refusing degraded open");
  }
  if (dead_count == 0) {
    gen->sharded_.emplace(file, shard_bits);
    return gen;
  }

  // Serve from a view that never reads a dead row or the file's directory:
  // live rows keep their keys, and every dead row takes the first key of a
  // dead shard — its own for an intact row, the lowest it killed for a
  // damaged one, raised to the key before it.  That keeps the copy sorted
  // (a damaged row's dead shards lie between its intact neighbours' shards)
  // and puts every dead row inside an excluded range.
  gen->live_keys_.resize(rows);
  auto next_damaged = damaged.begin();
  index_t previous = 0;
  for (std::uint64_t r = 0; r < rows; ++r) {
    if (next_damaged != damaged.end() && next_damaged->row == r) {
      previous = std::max(
          previous, layout.shard_key_range(next_damaged->first_dead).lo);
      ++next_damaged;
    } else {
      const std::size_t s = layout.shard_of_key(keys[r]);
      previous =
          gen->shard_alive_[s] != 0 ? keys[r] : layout.shard_key_range(s).lo;
    }
    gen->live_keys_[r] = previous;
  }
  for (std::size_t s = 0; s < count; ++s) {
    if (gen->shard_alive_[s] != 0) continue;
    gen->dead_shards_.push_back(static_cast<std::uint32_t>(s));
    gen->dead_key_ranges_.push_back(layout.shard_key_range(s));
  }
  gen->live_directory_ =
      build_block_directory(gen->live_keys_, file.block_rows());
  gen->sharded_.emplace(
      IndexColumnsView(curve, file.block_rows(), gen->live_keys_, file.ids(),
                       file.points(), gen->live_directory_),
      shard_bits);
  return gen;
}

std::shared_ptr<const IndexGeneration> IndexGeneration::wrap(
    IndexColumnsView view, int shard_bits, std::uint64_t epoch) {
  std::shared_ptr<IndexGeneration> gen(new IndexGeneration());
  gen->epoch_ = epoch;
  gen->sharded_.emplace(view, shard_bits);
  gen->shard_alive_.assign(gen->sharded_->shard_count(), 1);
  gen->shard_errors_.assign(gen->sharded_->shard_count(), std::string());
  return gen;
}

GenerationManager::GenerationManager(
    std::shared_ptr<const IndexGeneration> initial)
    : active_(std::move(initial)) {
  next_epoch_ = active_->epoch() + 1;
}

std::shared_ptr<const IndexGeneration> GenerationManager::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

std::shared_ptr<const IndexGeneration> GenerationManager::reload(
    const std::string& path, int shard_bits, bool allow_degraded) {
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch = next_epoch_++;
  }
  std::shared_ptr<const IndexGeneration> next;
  try {
    // All validation happens here, before the swap lock: a throw leaves
    // active_ untouched and still serving.
    next = IndexGeneration::open(path, shard_bits, epoch, allow_degraded);
  } catch (const Error& error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++failed_reloads_;
    }
    throw ReloadError(path, error.what());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  active_ = next;  // old generation unpins here; unmaps at refcount zero
  ++reloads_;
  return next;
}

std::uint64_t GenerationManager::reloads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reloads_;
}

std::uint64_t GenerationManager::failed_reloads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_reloads_;
}

}  // namespace sfc
