// Generation lifecycle: hot reloads swap at batch boundaries while in-flight
// clients keep bit-identical answers from the generation they were admitted
// under; old generations unmap exactly at refcount zero; a corrupt reload is
// rejected with the old generation untouched; and shard-isolated degraded
// mode routes queries around dead shards with typed partial results — for
// every curve family, never reading a dead row or the file's directory —
// until a repaired reload resurrects them; strict and degraded opens agree on
// every single-bit corruption of a column.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/executor.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/ranges/range_cover.h"
#include "sfc/rng/sampling.h"
#include "sfc/serve/generation.h"
#include "sfc/serve/serve_error.h"
#include "sfc/serve/server.h"
#include "sfc/serve/sharded_index.h"
#include "sfc/store/index_store.h"

namespace sfc {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/sfc_generation_" + name;
}

struct Dataset {
  CurveDescriptor descriptor;
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;
};

Dataset make_dataset(const std::string& family, std::uint64_t seed,
                     int count = 800) {
  CurveDescriptor descriptor;
  descriptor.family = family;
  descriptor.dim = 2;
  descriptor.side = 64;
  descriptor.seed = 7;
  CurvePtr curve = make_curve(descriptor);
  Xoshiro256 rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < count; ++i) {
    points.push_back(random_cell(curve->universe(), rng));
  }
  PointIndex index = PointIndex::build(*curve, points);
  return Dataset{descriptor, std::move(curve), std::move(points),
                 std::move(index)};
}

std::vector<std::uint32_t> scan_ids(const IndexColumnsView& view,
                                    const Box& box) {
  RangeScanEngine engine(view);
  std::vector<std::uint32_t> ids;
  engine.scan(box, &ids);
  return ids;
}

Box probe_box(int i) {
  const coord_t lo = static_cast<coord_t>((i * 5) % 48);
  return Box(Point{lo, lo}, Point{lo + 15, lo + 15});
}

/// Flips the low bit of the first coordinate of global row `row` in the
/// points column of the file at `path` (coords < side stay < side, so the
/// point stays in-universe but re-encodes to a different key — localizable
/// to the shard owning the row).
void corrupt_point_row(const std::string& path, std::uint64_t row) {
  MappedIndexOptions lazy;
  lazy.verify = false;
  lazy.lock = false;
  std::uint64_t offset = 0;
  {
    const MappedIndex mapped = MappedIndex::open(path, lazy);
    offset = mapped.column_offset(2) + row * sizeof(Point);
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good());
}

/// Overwrites word `index` of the 8-byte-word column `column` (0 = keys,
/// 3 = block directory) of the index file at `path`.
void write_column_word(const std::string& path, int column,
                       std::uint64_t index, index_t value) {
  MappedIndexOptions lazy;
  lazy.verify = false;
  lazy.lock = false;
  std::uint64_t offset = 0;
  {
    const MappedIndex mapped = MappedIndex::open(path, lazy);
    offset = mapped.column_offset(column) + index * sizeof(index_t);
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(reinterpret_cast<const char*>(&value), sizeof(value));
  ASSERT_TRUE(file.good());
}

/// Brute-force top k over the rows of `view` in shards `alive` marks live,
/// ordered (squared distance, key, id).
std::vector<KnnNeighbor> live_top_k(const IndexColumnsView& view,
                                    const ShardedIndex& shards,
                                    const std::vector<std::uint8_t>& alive,
                                    const Point& query, std::uint32_t k) {
  std::vector<KnnNeighbor> all;
  for (std::size_t s = 0; s < shards.shard_count(); ++s) {
    if (alive[s] == 0) continue;
    for (std::uint64_t r = shards.shard_row_begin(s);
         r < shards.shard_row_begin(s + 1); ++r) {
      all.push_back(KnnNeighbor{
          view.id_of_row(r), view.key_of_row(r),
          squared_euclidean_distance(query, view.point_of_row(r))});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const KnnNeighbor& a, const KnnNeighbor& b) {
              return std::tie(a.sq_dist, a.key, a.id) <
                     std::tie(b.sq_dist, b.key, b.id);
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(Generation, ReloadStormKeepsEveryAnswerGenerationConsistent) {
  // Clients hammer a distinguishing probe while the main thread reloads
  // between two datasets; every answer must equal one dataset's reference
  // bit-exactly — a torn or mixed answer fails.  Run at 1, 8, and 64
  // clients: the swap must be invisible at every concurrency level.
  const Dataset a = make_dataset("hilbert", 41);
  const Dataset b = make_dataset("hilbert", 42);
  const std::string path = temp_path("reload_storm");
  const Box probe = probe_box(2);
  const auto ref_a = scan_ids(a.index.view(), probe);
  const auto ref_b = scan_ids(b.index.view(), probe);
  ASSERT_NE(ref_a, ref_b);

  for (const int clients : {1, 8, 64}) {
    write_index_file(path, a.index, a.descriptor);
    ServerOptions options;
    options.shard_bits = 2;
    options.batch_window_us = 50;
    IndexServer server(path, options);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> answers{0};
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        while (!stop.load()) {
          const ServedRange served = server.range_query_served(probe);
          ++answers;
          if (served.result.ids != ref_a && served.result.ids != ref_b) ++bad;
        }
      });
    }
    for (int r = 0; r < 20; ++r) {
      write_index_file(path, (r % 2 == 0) ? b.index : a.index,
                       (r % 2 == 0) ? b.descriptor : a.descriptor);
      EXPECT_EQ(server.reload(path), static_cast<std::uint64_t>(r + 1));
    }
    stop = true;
    for (std::thread& t : threads) t.join();
    server.stop();

    EXPECT_EQ(bad.load(), 0u) << clients << " clients";
    EXPECT_GT(answers.load(), 0u);
    const ServerHealth health = server.health();
    EXPECT_EQ(health.reloads, 20u);
    EXPECT_EQ(health.failed_reloads, 0u);
    EXPECT_EQ(health.epoch, 20u);
  }
}

TEST(Generation, OldGenerationUnmapsAtRefcountZero) {
  const Dataset a = make_dataset("hilbert", 43);
  const Dataset b = make_dataset("hilbert", 44);
  const std::string path = temp_path("refcount");
  write_index_file(path, a.index, a.descriptor);

  GenerationManager manager(IndexGeneration::open(path, 2, 0, false));
  std::shared_ptr<const IndexGeneration> pinned = manager.active();
  std::weak_ptr<const IndexGeneration> watch = pinned;
  EXPECT_EQ(pinned->epoch(), 0u);

  write_index_file(path, b.index, b.descriptor);
  const auto fresh = manager.reload(path, 2, false);
  EXPECT_EQ(fresh->epoch(), 1u);
  EXPECT_EQ(manager.active().get(), fresh.get());

  // The manager dropped the old generation, but the pin (an in-flight batch
  // in real serving) keeps it alive — and still answering from the *old*
  // bytes, which the rename-based write left untouched on the old inode.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(scan_ids(pinned->sharded().base(), probe_box(1)),
            scan_ids(a.index.view(), probe_box(1)));

  pinned.reset();  // the last pin releases: the mapping unmaps now
  EXPECT_TRUE(watch.expired());
}

TEST(Generation, CorruptReloadLeavesOldGenerationServing) {
  const Dataset a = make_dataset("hilbert", 45);
  const std::string path = temp_path("corrupt_reload");
  write_index_file(path, a.index, a.descriptor);

  ServerOptions options;
  options.shard_bits = 2;
  IndexServer server(path, options);
  const Box probe = probe_box(4);
  const auto ref_a = scan_ids(a.index.view(), probe);
  EXPECT_EQ(server.range_query(probe).ids, ref_a);

  // Rename a torn stub over the path (never truncating in place — the old
  // generation's mapping and read lock pin the old inode, and in-place
  // mutation of a mapped file is exactly what the locking contract forbids).
  {
    const std::string stub = path + ".stub";
    std::ofstream file(stub, std::ios::binary | std::ios::trunc);
    file << "torn";
    file.close();
    ASSERT_EQ(std::rename(stub.c_str(), path.c_str()), 0);
  }
  try {
    server.reload(path);
    FAIL() << "expected ReloadError";
  } catch (const ReloadError& error) {
    EXPECT_EQ(error.path(), path);
    EXPECT_NE(std::string(error.what()).find("previous generation keeps"),
              std::string::npos);
  }
  // The old generation is untouched: same epoch, same answers, and the
  // failed attempt is accounted.
  const ServerHealth health = server.health();
  EXPECT_EQ(health.failed_reloads, 1u);
  EXPECT_EQ(health.reloads, 0u);
  EXPECT_EQ(health.epoch, 0u);
  EXPECT_EQ(server.range_query(probe).ids, ref_a);

  // Epochs burn monotonically across failures: the next success skips the
  // epoch the failed attempt consumed.
  write_index_file(path, a.index, a.descriptor);
  EXPECT_EQ(server.reload(path), 2u);
}

TEST(Generation, DegradedModeRoutesAroundDeadShardsForEveryFamily) {
  for (const std::string family : {"hilbert", "z", "snake", "gray", "simple",
                                   "random"}) {
    const Dataset a = make_dataset(family, 46);
    const std::string path = temp_path("degraded_" + family);
    write_index_file(path, a.index, a.descriptor);

    // Kill the shard owning the middle row by corrupting one of its points.
    constexpr int kShardBits = 2;
    const ShardedIndex reference(a.index.view(), kShardBits);
    const std::uint64_t victim_row = a.index.row_count() / 2;
    std::size_t dead = 0;
    while (dead + 1 < reference.shard_count() &&
           reference.shard_row_begin(dead + 1) <= victim_row) {
      ++dead;
    }
    corrupt_point_row(path, victim_row);

    // Strict open refuses; degraded open marks exactly that shard dead.
    EXPECT_THROW((void)IndexGeneration::open(path, kShardBits, 0, false),
                 StoreError)
        << family;
    ServerOptions options;
    options.shard_bits = kShardBits;
    options.allow_degraded = true;
    IndexServer server(path, options);
    const ServerHealth health = server.health();
    EXPECT_EQ(health.dead_shards, 1u) << family;
    ASSERT_EQ(health.shard_alive.size(), reference.shard_count()) << family;
    EXPECT_EQ(health.shard_alive[dead], 0u) << family;

    // Row -> shard for filtering reference answers down to live shards.
    const auto shard_of_row = [&](std::uint64_t row) {
      std::size_t s = 0;
      while (s + 1 < reference.shard_count() &&
             reference.shard_row_begin(s + 1) <= row) {
        ++s;
      }
      return s;
    };
    std::vector<std::size_t> id_shard(a.index.row_count());
    for (std::uint64_t row = 0; row < a.index.row_count(); ++row) {
      id_shard[a.index.ids()[row]] = shard_of_row(row);
    }

    int partial = 0;
    int full = 0;
    for (int i = 0; i < 10; ++i) {
      const Box probe = probe_box(i);
      const auto ref = scan_ids(a.index.view(), probe);
      std::vector<std::uint32_t> live_ref;
      for (const std::uint32_t id : ref) {
        if (id_shard[id] != dead) live_ref.push_back(id);
      }
      try {
        const RangeQueryResult result = server.range_query(probe);
        ++full;
        EXPECT_EQ(result.ids, ref) << family << " probe " << i;
      } catch (const PartialResultError& error) {
        ++partial;
        ASSERT_EQ(error.dead_shards().size(), 1u) << family;
        EXPECT_EQ(error.dead_shards()[0], dead) << family;
        EXPECT_EQ(error.partial_ids(), live_ref) << family << " probe " << i;
      }
    }
    EXPECT_GT(partial, 0) << family;  // the dead shard was actually routed

    // kNN is conservative: every query reports the dead shard, with the
    // live-shard best-k attached.
    try {
      (void)server.knn_query(Point{31, 31}, 4);
      FAIL() << family << ": expected PartialResultError";
    } catch (const PartialResultError& error) {
      EXPECT_EQ(error.dead_shards(), std::vector<std::uint32_t>{
                                         static_cast<std::uint32_t>(dead)});
      EXPECT_EQ(error.partial_neighbors().size(), 4u) << family;
      EXPECT_EQ(error.partial_neighbors(),
                live_top_k(a.index.view(), reference, health.shard_alive,
                           Point{31, 31}, 4))
          << family;
    }

    // A repaired reload resurrects the shard: full answers everywhere.
    write_index_file(path, a.index, a.descriptor);
    (void)server.reload(path);
    EXPECT_EQ(server.health().dead_shards, 0u) << family;
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(server.range_query(probe_box(i)).ids,
                scan_ids(a.index.view(), probe_box(i)))
          << family << " probe " << i;
    }
  }
}

TEST(Generation, DegradedServingReadsNothingDead) {
  // A degraded generation must never read a dead shard's keys, points or
  // ids, nor the file's block directory.  Corrupt one shard's keys (unsorted;
  // out of range mid-shard and at a block's last row; rewritten into the
  // previous shard at a shard's first row) and, separately, one directory
  // entry whose misuse would misroute lookups in live shards.  Exactly that
  // shard dies, and every answer equals the healthy answer restricted to
  // live shards.
  // Hilbert's subtree nodes align with its 4 shards.  Peano's (powers of 9)
  // straddle its 32 small shards, so kNN leaf scans that reach a dead
  // shard's rows must step over them.
  struct Config {
    const char* family;
    coord_t side;
    int shard_bits;
  };
  for (const Config& config :
       {Config{"hilbert", 64, 2}, Config{"peano", 81, 5}}) {
    const std::string family = config.family;
    const int shard_bits = config.shard_bits;
    CurveDescriptor descriptor;
    descriptor.family = family;
    descriptor.dim = 2;
    descriptor.side = config.side;
    const CurvePtr curve = make_curve(descriptor);
    const Universe u = curve->universe();
    Xoshiro256 rng(48);
    std::vector<Point> points;
    for (int i = 0; i < 1200; ++i) points.push_back(random_cell(u, rng));
    IndexBuildOptions build;
    build.block_rows = 16;  // many directory entries; shards span many blocks
    const PointIndex index = PointIndex::build(*curve, points, build);
    const IndexColumnsView healthy = index.view();
    std::vector<Box> boxes;
    for (int i = 0; i < 60; ++i) boxes.push_back(random_box(u, 9, rng));
    std::vector<Point> queries;
    for (int i = 0; i < 60; ++i) queries.push_back(random_cell(u, rng));

    const ShardedIndex reference(healthy, shard_bits);
    // A row in the middle of shard s that is not the last row of its block.
    const auto middle_row = [&](std::size_t s) {
      std::uint64_t row =
          (reference.shard_row_begin(s) + reference.shard_row_begin(s + 1)) / 2;
      if (row % build.block_rows == build.block_rows - 1) --row;
      return row;
    };
    const std::string path = temp_path("read_nothing_dead_" + family);

    // The last row of block B/2, the directory entry lower_bound probes
    // first, and its shard.
    const std::uint64_t mid_block = healthy.block_count() / 2;
    const std::uint64_t mid_block_end =
        std::min<std::uint64_t>((mid_block + 1) * build.block_rows,
                                healthy.row_count()) -
        1;
    std::size_t mid_block_shard = 0;
    while (reference.shard_row_begin(mid_block_shard + 1) <= mid_block_end) {
      ++mid_block_shard;
    }

    for (const std::string corruption : {"unsorted", "out_of_range",
                                         "block_end", "shard_edge",
                                         "directory"}) {
      const std::string where = family + " " + corruption;
      write_index_file(path, index, descriptor);
      std::size_t dead = 0;
      if (corruption == "unsorted") {
        dead = 1;
        std::uint64_t row = middle_row(dead);
        while (healthy.key_of_row(row) == healthy.key_of_row(row + 1)) ++row;
        write_column_word(path, 0, row, healthy.key_of_row(row + 1));
        write_column_word(path, 0, row + 1, healthy.key_of_row(row));
      } else if (corruption == "out_of_range") {
        dead = 2;
        write_column_word(path, 0, middle_row(dead), 0);
      } else if (corruption == "block_end") {
        // A key search over a directory rebuilt from the keys would be sent
        // past its block by this key, moving rows between shards.
        dead = mid_block_shard;
        write_column_word(path, 0, mid_block_end, 0);
      } else if (corruption == "shard_edge") {
        // Shard 2's first key, rewritten to shard 1's last: still sorted and
        // inside shard 1's range, so a key search would hand the row to
        // shard 1 and leave shard 2 alive without it.
        dead = 2;
        write_column_word(path, 0, reference.shard_row_begin(dead),
                          reference.shard_key_range(1).hi);
      } else {
        // Pointing the entry at key 0 would send every directory search for
        // a lower key past its block.
        dead = mid_block_shard;
        write_column_word(path, 3, mid_block, 0);
      }

      EXPECT_THROW((void)IndexGeneration::open(path, shard_bits, 0, false),
                   StoreError)
          << where;
      const auto gen = IndexGeneration::open(path, shard_bits, 0, true);
      ASSERT_EQ(gen->dead_shards(),
                std::vector<std::uint32_t>{static_cast<std::uint32_t>(dead)})
          << where << ": " << gen->shard_errors()[dead];

      ServerOptions options;
      options.shard_bits = shard_bits;
      options.allow_degraded = true;
      IndexServer server(path, options);
      const KeyInterval dead_keys = reference.shard_key_range(dead);
      const std::uint64_t dead_first = reference.shard_row_begin(dead);
      const std::uint64_t dead_end = reference.shard_row_begin(dead + 1);

      int full = 0;
      for (std::size_t i = 0; i < boxes.size(); ++i) {
        // The box needs the dead shard iff its exact cover (computed by
        // enumeration, independently of the engines) reaches the dead keys.
        bool needs_dead = false;
        for (const KeyInterval& run : cover_by_enumeration(*curve, boxes[i])) {
          needs_dead |= run.lo <= dead_keys.hi && dead_keys.lo <= run.hi;
        }
        const std::vector<std::uint32_t> ref = scan_ids(healthy, boxes[i]);
        std::vector<std::uint32_t> live_ref;
        for (std::uint64_t r = 0; r < healthy.row_count(); ++r) {
          if ((r < dead_first || r >= dead_end) &&
              boxes[i].contains(healthy.point_of_row(r))) {
            live_ref.push_back(healthy.id_of_row(r));
          }
        }
        try {
          EXPECT_EQ(server.range_query(boxes[i]).ids, ref)
              << where << " box " << i;
          EXPECT_FALSE(needs_dead) << where << " box " << i;
          ++full;
        } catch (const PartialResultError& error) {
          EXPECT_TRUE(needs_dead) << where << " box " << i;
          EXPECT_EQ(error.partial_ids(), live_ref) << where << " box " << i;
        }
      }
      EXPECT_GT(full, 0) << where;

      // kNN stays conservative (every query reports the dead shard), and its
      // partial answer is the exact top k over the live rows — which is the
      // healthy answer whenever that lies wholly in live shards.
      const std::vector<KnnQueryResult> healthy_knn =
          run_knn_queries(healthy, queries, 6);
      int all_live = 0;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::vector<KnnNeighbor> expected =
            live_top_k(healthy, reference, gen->shard_alive(), queries[i], 6);
        try {
          (void)server.knn_query(queries[i], 6);
          ADD_FAILURE() << where << " query " << i << ": expected partial";
        } catch (const PartialResultError& error) {
          EXPECT_EQ(error.dead_shards(), gen->dead_shards()) << where;
          EXPECT_EQ(error.partial_neighbors(), expected)
              << where << " query " << i;
          if (expected == healthy_knn[i].neighbors) ++all_live;
        }
      }
      EXPECT_GT(all_live, 0) << where;
    }

  }
}

TEST(Generation, StrictAndDegradedOpensAgreeOnEveryColumnBitFlip) {
  // Both opens read the store's one verification scan, so they agree on
  // every single-bit corruption: a strict open succeeds exactly when a
  // degraded open succeeds with no dead shard.  Every bit of every column is
  // flipped twice: raw (the column checksum trips) and with that column's
  // and the header's checksums recomputed (only the row checks can see it).
  // The ids column has no invariant a row check could test, so a flip there
  // with fixed checksums must pass both opens.
  CurveDescriptor descriptor;
  descriptor.family = "hilbert";
  descriptor.dim = 2;
  descriptor.side = 64;
  const CurvePtr curve = make_curve(descriptor);
  Xoshiro256 rng(49);
  std::vector<Point> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back(random_cell(curve->universe(), rng));
  }
  IndexBuildOptions build;
  build.block_rows = 16;
  const PointIndex index = PointIndex::build(*curve, points, build);
  const std::string path = temp_path("bit_flip_agreement");
  write_index_file(path, index, descriptor);
  std::vector<char> pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::uint64_t offset[4] = {};
  std::uint64_t bytes[4] = {};
  {
    MappedIndexOptions lazy;
    lazy.verify = false;
    const MappedIndex mapped = MappedIndex::open(path, lazy);
    for (int c = 0; c < 4; ++c) {
      offset[c] = mapped.column_offset(c);
      bytes[c] = mapped.column_bytes(c);
    }
  }
  // Byte-level header layout (v1): the column table's checksum words and
  // the header checksum, which covers the header with itself zeroed.
  constexpr std::size_t kColumnChecksum = 80 + 16;
  constexpr std::size_t kColumnEntryBytes = 24;
  constexpr std::size_t kHeaderChecksum = 176;
  constexpr std::size_t kHeaderBytes = 184;
  constexpr int kShardBits = 3;

  // Patches the file in place: the header and the byte at `at`, from `from`.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  const auto patch = [&](const std::vector<char>& from, std::uint64_t at) {
    file.seekp(0);
    file.write(from.data(), kHeaderBytes);
    file.seekp(static_cast<std::streamoff>(at));
    file.write(from.data() + at, 1);
    file.flush();
    ASSERT_TRUE(file.good());
  };
  std::vector<char> flipped = pristine;
  for (int c = 0; c < 4; ++c) {
    for (std::uint64_t bit = 0; bit < bytes[c] * 8; ++bit) {
      for (const bool fix : {false, true}) {
        const std::uint64_t at = offset[c] + bit / 8;
        flipped[at] ^= static_cast<char>(1u << (bit % 8));
        if (fix) {
          const std::uint64_t digest =
              fnv1a64(flipped.data() + offset[c], bytes[c]);
          std::memcpy(flipped.data() + kColumnChecksum +
                          static_cast<std::size_t>(c) * kColumnEntryBytes,
                      &digest, sizeof(digest));
          std::memset(flipped.data() + kHeaderChecksum, 0, sizeof(digest));
          const std::uint64_t header = fnv1a64(flipped.data(), kHeaderBytes);
          std::memcpy(flipped.data() + kHeaderChecksum, &header,
                      sizeof(header));
        }
        patch(flipped, at);
        const std::string where = "column " + std::to_string(c) + " bit " +
                                  std::to_string(bit) +
                                  (fix ? " (checksums fixed)" : " (raw)");
        bool strict_ok = true;
        try {
          (void)IndexGeneration::open(path, kShardBits, 0, false);
        } catch (const StoreError&) {
          strict_ok = false;
        }
        bool degraded_ok = false;
        std::size_t dead = 0;
        try {
          dead = IndexGeneration::open(path, kShardBits, 0, true)
                     ->dead_shards()
                     .size();
          degraded_ok = true;
        } catch (const StoreError&) {
        }
        EXPECT_EQ(strict_ok, degraded_ok && dead == 0) << where;
        EXPECT_TRUE(strict_ok || !degraded_ok || dead > 0) << where;
        EXPECT_TRUE(c != 1 || !fix || strict_ok) << where;
        flipped = pristine;
        patch(flipped, at);
      }
    }
  }
}

TEST(Generation, UnlocalizableCorruptionRefusesDegradedOpen) {
  // The ids column carries no semantic invariant to localize by, so an ids
  // checksum mismatch must refuse even a degraded open — serving plausible
  // but unattributable ids would be a silent wrong answer.
  const Dataset a = make_dataset("hilbert", 47);
  const std::string path = temp_path("ids_corrupt");
  write_index_file(path, a.index, a.descriptor);

  MappedIndexOptions lazy;
  lazy.verify = false;
  lazy.lock = false;
  std::uint64_t ids_offset = 0;
  {
    const MappedIndex mapped = MappedIndex::open(path, lazy);
    ids_offset = mapped.column_offset(1);
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(ids_offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x55);
  file.seekp(static_cast<std::streamoff>(ids_offset));
  file.write(&byte, 1);
  file.close();

  EXPECT_THROW((void)IndexGeneration::open(path, 2, 0, true), StoreError);
}

}  // namespace
}  // namespace sfc
