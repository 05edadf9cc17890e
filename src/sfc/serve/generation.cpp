#include "sfc/serve/generation.h"

#include <algorithm>
#include <span>
#include <utility>

#include "sfc/serve/serve_error.h"

namespace sfc {

std::shared_ptr<const IndexGeneration> IndexGeneration::open(
    const std::string& path, int shard_bits, std::uint64_t epoch,
    bool allow_degraded) {
  std::shared_ptr<IndexGeneration> gen(new IndexGeneration());
  gen->epoch_ = epoch;
  gen->path_ = path;

  // The store's one verification scan decides which rows are intact; a
  // strict open throws its first finding, a degraded one localizes them.
  gen->mapped_.emplace(MappedIndex::open(path, {.verify = false}));
  const IndexDamage damage = gen->mapped_->scan();
  if (!allow_degraded) gen->mapped_->throw_if_damaged(damage);
  const IndexColumnsView file = gen->mapped_->view();
  const SpaceFillingCurve& curve = file.curve();
  // Only the key-range table is used, and it depends on the curve alone.
  const ShardedIndex layout(
      IndexColumnsView(curve, file.block_rows(), {}, {}, {}, {}), shard_bits);
  const std::size_t count = layout.shard_count();
  gen->shard_alive_.assign(count, 1);
  gen->shard_errors_.assign(count, std::string());
  if (damage.clean()) {
    gen->sharded_.emplace(file, shard_bits);
    return gen;
  }

  const auto refuse = [&](const std::string& why) {
    throw StoreError("index open: '" + path + "': " + why +
                     ", refusing degraded open");
  };
  // The ids column (mask bit 1) has no semantic invariant a row check could
  // verify (any permutation of input positions is plausible), so its
  // corruption cannot be localized — serving would risk silently wrong ids.
  const std::uint32_t mask = damage.checksum_mask;
  if (mask & (1u << 1)) {
    refuse("ids column checksum mismatch — not localizable to a shard");
  }
  if (damage.unsorted_row) {
    refuse("intact row " + std::to_string(*damage.unsorted_row) +
           " sorts below an earlier intact row, not localizable to a shard");
  }

  // Localize.  A damaged row's true key lies between the keys of the intact
  // rows around it, and it is the stored key when the key column's checksum
  // holds, the point's key when the points column's does, and either one
  // otherwise.  The shards of the candidates that fit between the intact
  // keys die, or every shard of that gap when none fits.  Nothing here
  // searches the key column or the file's directory, so no corrupt word can
  // move rows from one shard to another.
  const std::span<const index_t> keys = file.keys();
  const std::uint64_t rows = keys.size();

  std::size_t dead_count = 0;
  const auto mark_dead = [&](std::size_t s, const auto& why) {
    if (gen->shard_alive_[s] == 0) return;
    gen->shard_alive_[s] = 0;
    gen->shard_errors_[s] = why();
    ++dead_count;
  };

  const std::vector<DamagedRow>& damaged = damage.damaged_rows;
  std::vector<std::size_t> first_dead(damaged.size());  // lowest shard killed
  const bool keys_sound = (mask & (1u << 0)) == 0;    // keys: bit 0
  const bool points_sound = (mask & (1u << 2)) == 0;  // points: bit 2
  // Kills the shards the true keys of damaged[begin, end) can lie in: the
  // keys of the intact rows around that run, gap_lo and gap_hi, bound them.
  const auto close_gap = [&](std::size_t begin, std::size_t end,
                             index_t gap_lo, index_t gap_hi) {
    for (std::size_t i = begin; i < end; ++i) {
      const DamagedRow& d = damaged[i];
      const auto why = [&] { return gen->mapped_->describe(d); };
      first_dead[i] = count;
      for (const index_t key :
           {keys_sound || !points_sound ? d.stored : DamagedRow::kNoKey,
            keys_sound ? DamagedRow::kNoKey : d.encoded}) {
        if (key < gap_lo || key > gap_hi) continue;
        const std::size_t s = layout.shard_of_key(key);
        mark_dead(s, why);
        first_dead[i] = std::min(first_dead[i], s);
      }
      if (first_dead[i] == count) {
        first_dead[i] = layout.shard_of_key(gap_lo);
        for (std::size_t s = first_dead[i]; s <= layout.shard_of_key(gap_hi);
             ++s) {
          mark_dead(s, why);
        }
      }
    }
  };
  for (std::size_t begin = 0, end = 0; begin < damaged.size(); begin = end) {
    for (end = begin + 1;
         end < damaged.size() && damaged[end].row == damaged[end - 1].row + 1;
         ++end) {
    }
    const std::uint64_t first = damaged[begin].row;
    const std::uint64_t after = damaged[end - 1].row + 1;
    close_gap(begin, end, first == 0 ? 0 : keys[first - 1],
              after == rows ? curve.universe().cell_count() - 1 : keys[after]);
  }

  // A mismatch in the file's block directory beside an intact row marks that
  // row's shard: that is where the disagreeing key lives.  (A damaged row's
  // shards are dead already.)
  for (const std::uint64_t b : damage.directory_blocks) {
    const std::uint64_t last = std::min<std::uint64_t>(
        (b + 1) * std::uint64_t{file.block_rows()}, rows) - 1;
    if (!std::ranges::binary_search(damaged, last, {}, &DamagedRow::row)) {
      mark_dead(layout.shard_of_key(keys[last]), [&] {
        return "global directory entry " + std::to_string(b) +
               " disagrees with the key column";
      });
    }
  }

  if (dead_count == count) {
    refuse("every shard failed verification (first: " +
           gen->shard_errors_[0] + ")");
  }
  if (dead_count == 0) {
    // Only a checksum disagrees and no row check explains it — either the
    // recorded checksum itself is corrupt or the corruption hides where the
    // row checks cannot see it.  Unattributable = unserveable.
    refuse("column checksum mismatch (mask " + std::to_string(mask) +
           ") not localizable to any shard");
  }

  // Serve from a view that never reads a dead row or the file's directory:
  // live rows keep their keys, and every dead row takes the first key of a
  // dead shard — its own for an intact row, the lowest it killed for a
  // damaged one, raised to the key before it.  That keeps the copy sorted
  // (a damaged row's dead shards lie between its intact neighbours' shards)
  // and puts every dead row inside an excluded range.
  gen->live_keys_.resize(rows);
  std::size_t next_damaged = 0;
  index_t previous = 0;
  for (std::uint64_t r = 0; r < rows; ++r) {
    if (next_damaged < damaged.size() && damaged[next_damaged].row == r) {
      previous = std::max(
          previous, layout.shard_key_range(first_dead[next_damaged]).lo);
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
