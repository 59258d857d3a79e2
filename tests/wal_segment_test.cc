// SegmentedWal edge cases: rotation at batch boundaries, truncation
// exactly at a COMMIT boundary, snapshot failure leaving every segment
// intact, resume-after-crash truncating back to the last batch boundary,
// a segment fsync failure, and recovery replaying across segment seams.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/view_manager.h"
#include "src/persist/fault.h"
#include "src/persist/recovery.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal_set.h"
#include "src/storage/database.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

using persist::FaultFile;
using persist::ReadSegmentedWal;
using persist::Recover;
using persist::RecoverResult;
using persist::SegmentedReadResult;
using persist::SegmentedWal;
using persist::SegmentedWalOptions;
using persist::TruncateFile;
using persist::WalRecordType;
using persist::WalSegmentInfo;
using persist::WriteSnapshot;
using ::idivm::testing::ExpectViewMatchesRecompute;
using ::idivm::testing::LoadRunningExample;
using ::idivm::testing::RunningExampleSpjPlan;

// An empty directory under this process's scratch (repeats reuse it).
std::string FreshDir(const std::string& name) {
  const std::string dir = ::idivm::testing::Scratch().Path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  return dir;
}

Modification InsertMod(int key) {
  Modification mod;
  mod.kind = DiffType::kInsert;
  mod.post = {Value(static_cast<int64_t>(key)), Value("payload")};
  return mod;
}

// One batch: `mods` modification records followed by a COMMIT. Returns the
// COMMIT's LSN.
uint64_t AppendBatch(SegmentedWal* wal, int mods, int key_base) {
  for (int i = 0; i < mods; ++i) {
    wal->JournalModification("t", InsertMod(key_base + i));
  }
  return wal->JournalCommit();
}

TEST(WalSegmentTest, RotatesOnlyAtBatchBoundaries) {
  const std::string dir = FreshDir("rotate");
  SegmentedWalOptions options;
  options.rotate_bytes = 1;  // rotate at the first boundary after any record
  auto wal = SegmentedWal::Open(dir, options);
  ASSERT_NE(wal, nullptr);

  // Mid-batch the size threshold is long passed, but no rotation happens
  // until the COMMIT lands.
  for (int i = 0; i < 5; ++i) wal->JournalModification("t", InsertMod(i));
  EXPECT_EQ(wal->Segments().size(), 1u);
  const uint64_t commit1 = wal->JournalCommit();
  ASSERT_EQ(wal->Segments().size(), 2u);  // rotated: closed + fresh active
  const std::vector<WalSegmentInfo> segments = wal->Segments();
  EXPECT_EQ(segments[0].first_lsn, 1u);
  EXPECT_EQ(segments[0].last_lsn, commit1);
  EXPECT_EQ(segments[1].first_lsn, commit1 + 1);
  EXPECT_EQ(segments[1].last_lsn, 0u);  // active, still empty

  const uint64_t commit2 = AppendBatch(wal.get(), 2, 100);
  wal.reset();

  const SegmentedReadResult read = ReadSegmentedWal(dir);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_FALSE(read.truncated);
  ASSERT_EQ(read.records.size(), 9u);
  for (size_t i = 0; i < read.records.size(); ++i) {
    EXPECT_EQ(read.records[i].lsn, i + 1);  // LSN-ordered concatenation
  }
  EXPECT_EQ(read.records.back().lsn, commit2);
  EXPECT_EQ(read.records.back().type, WalRecordType::kCommit);
}

TEST(WalSegmentTest, RotateRefusesAnEmptyActiveSegment) {
  const std::string dir = FreshDir("rotate_empty");
  auto wal = SegmentedWal::Open(dir);
  ASSERT_NE(wal, nullptr);
  EXPECT_FALSE(wal->Rotate());  // nothing journaled yet
  AppendBatch(wal.get(), 1, 0);
  EXPECT_TRUE(wal->Rotate());
  EXPECT_FALSE(wal->Rotate());  // fresh active is empty again
  EXPECT_EQ(wal->Segments().size(), 2u);
}

TEST(WalSegmentTest, TruncateExactlyAtCommitBoundary) {
  const std::string dir = FreshDir("truncate_commit");
  SegmentedWalOptions options;
  options.rotate_bytes = 1;
  auto wal = SegmentedWal::Open(dir, options);
  ASSERT_NE(wal, nullptr);
  const uint64_t commit1 = AppendBatch(wal.get(), 2, 0);    // segment 1
  const uint64_t commit2 = AppendBatch(wal.get(), 2, 100);  // segment 2
  AppendBatch(wal.get(), 2, 200);                           // segment 3
  ASSERT_EQ(wal->Segments().size(), 4u);

  // A snapshot covering exactly batch 1's COMMIT drops segment 1 alone.
  const uint64_t before = wal->TotalBytes();
  const uint64_t freed = wal->TruncateBefore(commit1);
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(wal->TotalBytes(), before - freed);
  SegmentedReadResult read = ReadSegmentedWal(dir);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_FALSE(read.records.empty());
  EXPECT_EQ(read.records.front().lsn, commit1 + 1);

  // An LSN inside batch 2 (before its COMMIT) frees nothing: a segment is
  // deleted only when *all* its records are covered.
  EXPECT_EQ(wal->TruncateBefore(commit2 - 1), 0u);
  // Exactly at batch 2's COMMIT, its segment goes too.
  EXPECT_GT(wal->TruncateBefore(commit2), 0u);
  read = ReadSegmentedWal(dir);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_FALSE(read.records.empty());
  EXPECT_EQ(read.records.front().lsn, commit2 + 1);
  wal.reset();
}

TEST(WalSegmentTest, TruncateNeverDeletesTheActiveSegment) {
  const std::string dir = FreshDir("truncate_active");
  SegmentedWalOptions options;
  options.rotate_bytes = 1;
  auto wal = SegmentedWal::Open(dir, options);
  ASSERT_NE(wal, nullptr);
  AppendBatch(wal.get(), 1, 0);
  AppendBatch(wal.get(), 1, 10);
  const uint64_t last = AppendBatch(wal.get(), 1, 20);

  // Covering every LSN ever written still leaves the active segment.
  wal->TruncateBefore(last + 1000);
  ASSERT_EQ(wal->Segments().size(), 1u);
  EXPECT_EQ(wal->Segments()[0].first_lsn, last + 1);

  // Appending afterwards continues the LSN sequence.
  const uint64_t next = AppendBatch(wal.get(), 1, 30);
  EXPECT_EQ(next, last + 2);
  wal.reset();
  const SegmentedReadResult read = ReadSegmentedWal(dir);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records.front().lsn, last + 1);
}

TEST(WalSegmentTest, SnapshotFailureLeavesAllSegmentsIntact) {
  const std::string dir = FreshDir("snapshot_failure");
  SegmentedWalOptions options;
  options.rotate_bytes = 1;
  auto wal = SegmentedWal::Open(dir, options);
  ASSERT_NE(wal, nullptr);
  AppendBatch(wal.get(), 2, 0);
  AppendBatch(wal.get(), 2, 100);
  const std::vector<WalSegmentInfo> before = wal->Segments();
  const uint64_t bytes_before = wal->TotalBytes();

  // The snapshot write fails (unreachable path) — the housekeeping
  // contract is that nothing else happens: no checkpoint, no rotation, no
  // truncation, every segment byte still on disk.
  Database db;
  const std::string error = WriteSnapshot(
      db, "", wal->last_lsn(), dir + "/no_such_subdir/snapshot.bin");
  ASSERT_FALSE(error.empty());

  const std::vector<WalSegmentInfo> after = wal->Segments();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].path, before[i].path);
    EXPECT_EQ(after[i].bytes, before[i].bytes);
  }
  EXPECT_EQ(wal->TotalBytes(), bytes_before);
  wal.reset();
  const SegmentedReadResult read = ReadSegmentedWal(dir);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_FALSE(read.truncated);
  EXPECT_EQ(read.records.size(), 6u);
}

TEST(WalSegmentTest, ReopenDiscardsUncommittedTail) {
  const std::string dir = FreshDir("uncommitted_tail");
  auto wal = SegmentedWal::Open(dir);
  ASSERT_NE(wal, nullptr);
  const uint64_t commit = AppendBatch(wal.get(), 2, 0);
  // Two valid but uncommitted records past the boundary.
  wal->JournalModification("t", InsertMod(100));
  wal->JournalModification("t", InsertMod(101));
  wal.reset();  // flushes; the tail records are on disk but uncommitted

  // Reopen truncates back to the COMMIT — exactly what Recover() would
  // discard — so resumed appends reuse the discarded LSNs.
  wal = SegmentedWal::Open(dir);
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->last_lsn(), commit);
  // The cut segment is closed at the COMMIT; appends go to a fresh one.
  const std::vector<WalSegmentInfo> segments = wal->Segments();
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].last_lsn, commit);
  EXPECT_EQ(segments[1].first_lsn, commit + 1);
  const uint64_t next_commit = AppendBatch(wal.get(), 1, 200);
  EXPECT_EQ(next_commit, commit + 2);
  wal.reset();

  const SegmentedReadResult read = ReadSegmentedWal(dir);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_FALSE(read.truncated);
  ASSERT_EQ(read.records.size(), 5u);
  EXPECT_EQ(read.records[2].type, WalRecordType::kCommit);
  EXPECT_EQ(read.records[3].lsn, commit + 1);  // the resumed batch
  EXPECT_EQ(read.records.back().type, WalRecordType::kCommit);
}

TEST(WalSegmentTest, ReopenTruncatesATornTailToTheLastBoundary) {
  const std::string dir = FreshDir("torn_tail");
  auto wal = SegmentedWal::Open(dir);
  ASSERT_NE(wal, nullptr);
  const uint64_t commit = AppendBatch(wal.get(), 2, 0);
  wal->JournalModification("t", InsertMod(100));
  wal->Sync();
  wal.reset();

  // Tear the last few bytes of the active segment (crash mid-write).
  SegmentedReadResult damaged = ReadSegmentedWal(dir);
  ASSERT_TRUE(damaged.ok) << damaged.error;
  ASSERT_EQ(damaged.segments.size(), 1u);
  const WalSegmentInfo& segment = damaged.segments.back();
  ASSERT_GT(segment.bytes, 5u);
  ASSERT_TRUE(TruncateFile(segment.path, segment.bytes - 3));

  const SegmentedReadResult read = ReadSegmentedWal(dir);
  EXPECT_TRUE(read.truncated);

  wal = SegmentedWal::Open(dir);
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->last_lsn(), commit);  // torn record *and* the valid
                                       // uncommitted one are gone
  AppendBatch(wal.get(), 1, 200);
  wal.reset();
  const SegmentedReadResult resumed = ReadSegmentedWal(dir);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_FALSE(resumed.truncated);
  EXPECT_EQ(resumed.records.size(), 5u);
}

TEST(WalSegmentTest, CorruptMiddleSegmentStopsTheReadAtTheDamage) {
  const std::string dir = FreshDir("bitflip");
  SegmentedWalOptions options;
  options.rotate_bytes = 1;
  auto wal = SegmentedWal::Open(dir, options);
  ASSERT_NE(wal, nullptr);
  AppendBatch(wal.get(), 2, 0);    // segment 1
  AppendBatch(wal.get(), 2, 100);  // segment 2
  wal.reset();

  SegmentedReadResult pristine = ReadSegmentedWal(dir);
  ASSERT_TRUE(pristine.ok) << pristine.error;
  ASSERT_GE(pristine.segments.size(), 2u);
  const std::string victim = pristine.segments[0].path;

  // Flip one payload bit in the *first* segment: the read keeps segment
  // 1's records before the damage and ignores everything after it —
  // including the whole of segment 2, which sits past the damage in
  // append order.
  FaultFile fault(victim, victim);
  fault.WithBitFlip(pristine.segments[0].bytes - 4, 3);
  const SegmentedReadResult read = ReadSegmentedWal(dir);
  EXPECT_TRUE(read.truncated);
  EXPECT_EQ(read.torn_segment, victim);
  for (const auto& record : read.records) {
    EXPECT_LT(record.lsn, pristine.segments[1].first_lsn);
  }
}

TEST(WalSegmentTest, SegmentFsyncFailureAborts) {
  const std::string dir = FreshDir("fsync_failure");
  auto wal = SegmentedWal::Open(dir);
  ASSERT_NE(wal, nullptr);
  const uint64_t commit = AppendBatch(wal.get(), 2, 0);

  // The next segment's name is a symlink to /dev/null, where writes
  // succeed and fsync fails (EINVAL). A journal that cannot make its new
  // segment durable must stop, not carry on as if it had.
  char name[64];
  std::snprintf(name, sizeof(name), "/seg-%020llu.wal",
                static_cast<unsigned long long>(commit + 1));
  ASSERT_EQ(::symlink("/dev/null", (dir + name).c_str()), 0);
  EXPECT_DEATH(wal->Rotate(), "fsync");
}

// End-to-end: a run journaled across several segments (snapshot mid-way,
// checkpoint, truncation) recovers to views identical to recompute, with
// replay crossing the segment seams.
TEST(WalSegmentTest, RecoveryReplaysAcrossSegmentSeams) {
  const std::string dir = FreshDir("recover_seam");
  const std::string snapshot = dir + "/snapshot.bin";
  const std::string wal_dir = dir + "/wal";
  ::mkdir(wal_dir.c_str(), 0755);

  {
    Database db;
    LoadRunningExample(&db);
    ViewManager vm(&db);
    vm.DefineView("v", RunningExampleSpjPlan(db));

    SegmentedWalOptions options;
    options.rotate_bytes = 1;  // a segment per batch: every replay batch
                               // crosses a seam
    auto wal = SegmentedWal::Open(wal_dir, options);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(
        WriteSnapshot(db, vm.SerializeRepository(), 0, snapshot).empty());
    vm.set_journal(wal.get());

    // Batch 1, then a snapshot covering it: checkpoint + truncate, the
    // service's housekeeping sequence.
    ASSERT_TRUE(vm.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
    ASSERT_TRUE(vm.Insert("parts", {Value("P9"), Value(90.0)}));
    vm.Refresh();
    const uint64_t covered = wal->last_lsn();
    ASSERT_TRUE(
        WriteSnapshot(db, vm.SerializeRepository(), covered, snapshot)
            .empty());
    wal->JournalCheckpoint(covered, snapshot);
    wal->TruncateBefore(covered);

    // Batches 2 and 3 land in fresh segments.
    ASSERT_TRUE(vm.Insert("devices_parts", {Value("D2"), Value("P2")}));
    ASSERT_TRUE(vm.Update("parts", {Value("P2")}, {"price"}, {Value(25.0)}));
    vm.Refresh();
    ASSERT_TRUE(vm.Delete("devices_parts", {Value("D1"), Value("P1")}));
    ASSERT_TRUE(vm.Update("parts", {Value("P1")}, {"price"}, {Value(12.0)}));
    vm.Refresh();

    vm.set_journal(nullptr);
    wal->Sync();
    ASSERT_GE(wal->Segments().size(), 2u);
    wal.reset();
  }

  Database db2;
  ViewManager vm2(&db2);
  const RecoverResult result = Recover(&db2, &vm2, snapshot, wal_dir);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.wal_truncated);
  EXPECT_EQ(result.batches_applied, 2u);  // batch 1 lives in the snapshot
  ExpectViewMatchesRecompute(&db2, RunningExampleSpjPlan(db2), "v",
                             "recovered across segment seams");
}

}  // namespace
}  // namespace idivm
