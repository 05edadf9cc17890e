// Reader hardening for live serving: the advisory read lock rides the
// mapping, crash-safe writes rename over the path and never disturb live
// mappings (the never-truncate regression lock), column checksum mismatches
// are localizable after a degraded open, the seeded write-kill hook proves
// a writer death at *every* syscall leaves the path openable, and N forked
// processes mapping one file answer reference probes bit-identically.
#include <gtest/gtest.h>

#include <sys/file.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sfc/curves/curve_factory.h"
#include "sfc/index/point_index.h"
#include "sfc/index/range_scan.h"
#include "sfc/rng/sampling.h"
#include "sfc/store/index_store.h"

namespace sfc {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/sfc_hardening_" + name;
}

struct Dataset {
  CurveDescriptor descriptor;
  CurvePtr curve;
  std::vector<Point> points;
  PointIndex index;
};

Dataset make_dataset(std::uint64_t seed, int count = 600) {
  CurveDescriptor descriptor;
  descriptor.family = "hilbert";
  descriptor.dim = 2;
  descriptor.side = 64;
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
  const coord_t lo = static_cast<coord_t>((i * 7) % 48);
  return Box(Point{lo, lo}, Point{lo + 15, lo + 15});
}

TEST(StoreHardening, AdvisoryReadLockHeldWhileMapped) {
  const Dataset a = make_dataset(21);
  const std::string path = temp_path("read_lock");
  write_index_file(path, a.index, a.descriptor);

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  {
    const MappedIndex mapped = MappedIndex::open(path);
    // A would-be in-place mutator taking the exclusive lock must see the
    // reader and fail...
    EXPECT_NE(::flock(fd, LOCK_EX | LOCK_NB), 0);
    EXPECT_EQ(errno, EWOULDBLOCK);
    // ...while other readers share the lock freely.
    EXPECT_EQ(::flock(fd, LOCK_SH | LOCK_NB), 0);
    EXPECT_EQ(::flock(fd, LOCK_UN), 0);
  }
  // The mapping's destructor releases the lock with its fd.
  EXPECT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);
  ::close(fd);
}

TEST(StoreHardening, OpenRefusesExclusivelyLockedFile) {
  const Dataset a = make_dataset(22);
  const std::string path = temp_path("excl_lock");
  write_index_file(path, a.index, a.descriptor);

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);
  EXPECT_THROW((void)MappedIndex::open(path), StoreIoError);
  // Opting out of locking (cooperating read-only tooling) still works.
  MappedIndexOptions no_lock;
  no_lock.lock = false;
  EXPECT_NO_THROW((void)MappedIndex::open(path, no_lock));
  ::close(fd);
}

TEST(StoreHardening, RenameOverLivePathKeepsOldMappingServing) {
  // The never-truncate regression lock: write_index_file over a live path
  // must rename a complete temp file into place, leaving the old inode (and
  // every mapping of it) untouched.  If the write path ever mutated the file
  // in place, the old mapping's answers would change or the process would
  // fault — this test pins the contract.
  const Dataset a = make_dataset(23);
  const Dataset b = make_dataset(24);
  const std::string path = temp_path("rename_over_live");
  write_index_file(path, a.index, a.descriptor);

  const MappedIndex live = MappedIndex::open(path);
  std::vector<std::vector<std::uint32_t>> before;
  for (int i = 0; i < 8; ++i) {
    before.push_back(scan_ids(live.view(), probe_box(i)));
  }

  // Replace the path while `live` still maps the old inode.
  write_index_file(path, b.index, b.descriptor);

  for (std::size_t i = 0; i < 8; ++i) {
    const Box probe = probe_box(static_cast<int>(i));
    EXPECT_EQ(scan_ids(live.view(), probe), before[i]) << "probe " << i;
    EXPECT_EQ(before[i], scan_ids(a.index.view(), probe));
  }
  // A fresh open serves the new dataset.
  const MappedIndex fresh = MappedIndex::open(path);
  bool differs = false;
  for (std::size_t i = 0; i < 8; ++i) {
    const Box probe = probe_box(static_cast<int>(i));
    const auto ids = scan_ids(fresh.view(), probe);
    EXPECT_EQ(ids, scan_ids(b.index.view(), probe));
    if (ids != before[i]) differs = true;
  }
  EXPECT_TRUE(differs);  // the swap was observable, so the probes are live
}

TEST(StoreHardening, VerifyColumnChecksumsLocalizesCorruption) {
  const Dataset a = make_dataset(25);
  const std::string path = temp_path("column_mask");
  write_index_file(path, a.index, a.descriptor);

  MappedIndexOptions lazy;
  lazy.verify = false;
  std::uint64_t points_offset = 0;
  {
    const MappedIndex clean = MappedIndex::open(path, lazy);
    EXPECT_EQ(clean.scan().checksum_mask, 0u);
    points_offset = clean.column_offset(2);
  }
  // Stomp one byte in the points column; only bit 2 may trip.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(points_offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(points_offset));
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }
  const MappedIndex tampered = MappedIndex::open(path, lazy);
  EXPECT_EQ(tampered.scan().checksum_mask, 1u << 2);
}

TEST(StoreHardening, WriterKillAtEverySyscallLeavesPathOpenable) {
  // Crash coverage at every write-path syscall boundary: for each countdown
  // c, a forked child dies at exactly the c-th syscall of write_index_file.
  // After every crash the path must open fully verified and serve either the
  // old or the new dataset — never a torn hybrid.  The countdown sweep stops
  // once a child survives the whole write (countdown exceeded the write's
  // syscall count).
  const Dataset a = make_dataset(26);
  const Dataset b = make_dataset(27);
  const std::string path = temp_path("kill_sweep");
  write_index_file(path, a.index, a.descriptor);

  const auto ref_a = scan_ids(a.index.view(), probe_box(3));
  const auto ref_b = scan_ids(b.index.view(), probe_box(3));
  ASSERT_NE(ref_a, ref_b);  // the probe distinguishes the datasets

  int killed = 0;
  int survived = 0;
  for (int countdown = 0; countdown < 200 && survived == 0; ++countdown) {
    const ::pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      store_testing::write_kill_countdown.store(countdown);
      try {
        write_index_file(path, b.index, b.descriptor);
      } catch (...) {
        ::_exit(3);
      }
      ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    const int code = WEXITSTATUS(status);
    ASSERT_TRUE(code == 0 || code == store_testing::kKillExitCode)
        << "countdown " << countdown << " exit " << code;
    if (code == store_testing::kKillExitCode) {
      ++killed;
    } else {
      ++survived;
    }
    MappedIndexOptions verify;
    verify.verify = true;
    const MappedIndex after = MappedIndex::open(path, verify);
    const auto ids = scan_ids(after.view(), probe_box(3));
    EXPECT_TRUE(ids == ref_a || ids == ref_b)
        << "torn content after kill at countdown " << countdown;
  }
  EXPECT_GT(killed, 5);     // the sweep actually crashed mid-write
  EXPECT_EQ(survived, 1);   // and ended with one complete write
  const MappedIndex final_map = MappedIndex::open(path);
  EXPECT_EQ(scan_ids(final_map.view(), probe_box(3)), ref_b);
}

TEST(StoreHardening, MultiProcessMappedServingIsBitIdentical) {
  // N processes map one file concurrently (shared advisory locks) and each
  // answers the reference probes; any deviation from the in-memory answers
  // is a child failure.  This is the cross-process half of the mmap serving
  // story — same inode, same bytes, same answers everywhere.
  const Dataset a = make_dataset(28);
  const std::string path = temp_path("multi_process");
  write_index_file(path, a.index, a.descriptor);

  std::vector<std::vector<std::uint32_t>> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(scan_ids(a.index.view(), probe_box(i)));
  }

  constexpr int kProcesses = 4;
  std::vector<::pid_t> children;
  for (int p = 0; p < kProcesses; ++p) {
    const ::pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        const MappedIndex mapped = MappedIndex::open(path);
        for (std::size_t i = 0; i < 16; ++i) {
          if (scan_ids(mapped.view(), probe_box(static_cast<int>(i))) !=
              expected[i]) {
            ::_exit(2);
          }
        }
      } catch (...) {
        ::_exit(3);
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (const ::pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

}  // namespace
}  // namespace sfc
