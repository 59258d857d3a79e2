// Unit and integration tests for the durability subsystem: codec framing,
// WAL round-trips and damage detection, snapshot atomicity, and snapshot +
// WAL-replay recovery through the compiled ∆-scripts.

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "gtest/gtest.h"
#include "src/common/str_util.h"
#include "src/core/view_manager.h"
#include "src/persist/codec.h"
#include "src/persist/fault.h"
#include "src/persist/recovery.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal_set.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

using persist::Crc32c;
using persist::Decoder;
using persist::Encoder;
using persist::FaultFile;
using persist::FrameStatus;
using persist::LoadSnapshotInto;
using persist::ReadSegmentedWal;
using persist::Recover;
using persist::RecoverMode;
using persist::RecoverOptions;
using persist::RecoverResult;
using persist::SegmentedReadResult;
using persist::SegmentedWal;
using persist::SnapshotLoadResult;
using persist::WalRecordType;
using persist::WalSegmentInfo;
using persist::WriteSnapshot;

// A path under this process's scratch directory.
std::string TempPath(const std::string& name) {
  return ::idivm::testing::Scratch().Path(name);
}

// A fresh (emptied) directory for a WAL: SegmentedWal::Open resumes any
// log it finds.
std::string FreshWalDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  return dir;
}

// `dir`'s only segment, after checking that it is the only one.
WalSegmentInfo OnlySegment(const std::string& dir) {
  const SegmentedReadResult read = ReadSegmentedWal(dir);
  EXPECT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.segments.size(), 1u);
  return read.segments.empty() ? WalSegmentInfo{} : read.segments.front();
}

TEST(CodecTest, Crc32cKnownVector) {
  // The canonical CRC-32C check value.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_NE(Crc32c("a"), Crc32c("b"));
}

TEST(CodecTest, PrimitiveRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEFu);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutDouble(-3.25);
  enc.PutString(std::string("nul\0inside", 10));
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetU8(), 0xAB);
  EXPECT_EQ(dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetI64(), -42);
  EXPECT_DOUBLE_EQ(dec.GetDouble(), -3.25);
  EXPECT_EQ(dec.GetString(), std::string("nul\0inside", 10));
  EXPECT_TRUE(dec.ok());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, ValueRowSchemaRoundTrip) {
  const Row row = {Value::Null(), Value(int64_t{-7}), Value(2.5),
                   Value("héllo"), Value(int64_t{1} << 62)};
  const Schema schema({{"id", DataType::kInt64},
                       {"price", DataType::kDouble},
                       {"name", DataType::kString},
                       {"opt", DataType::kNull}});
  Encoder enc;
  enc.PutRow(row);
  enc.PutSchema(schema);
  Decoder dec(enc.buffer());
  const Row got = dec.GetRow();
  const Schema got_schema = dec.GetSchema();
  ASSERT_TRUE(dec.ok()) << dec.error();
  EXPECT_TRUE(dec.AtEnd());
  ASSERT_EQ(got.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(got[i].type(), row[i].type()) << i;
    EXPECT_EQ(got[i].Compare(row[i]), 0) << i;
  }
  EXPECT_EQ(got_schema, schema);
}

TEST(CodecTest, DecoderFailsCleanlyOnUnderflow) {
  Encoder enc;
  enc.PutU32(100);  // declares a 100-byte string that is not there
  Decoder dec(enc.buffer());
  dec.GetString();
  EXPECT_FALSE(dec.ok());
  EXPECT_NE(dec.error().find("underflow"), std::string::npos);
  // Subsequent reads stay failed and return zero values.
  EXPECT_EQ(dec.GetU64(), 0u);
  EXPECT_FALSE(dec.ok());
}

TEST(CodecTest, FrameDetectsCorruptionAndTears) {
  std::string file;
  persist::AppendFrame("hello", &file);
  persist::AppendFrame("world!", &file);

  auto first = persist::ReadFrame(file, 0);
  ASSERT_EQ(first.status, FrameStatus::kOk);
  EXPECT_EQ(first.payload, "hello");
  auto second = persist::ReadFrame(file, first.end_offset);
  ASSERT_EQ(second.status, FrameStatus::kOk);
  EXPECT_EQ(second.payload, "world!");
  EXPECT_EQ(persist::ReadFrame(file, second.end_offset).status,
            FrameStatus::kEnd);

  // Bit flip in the second payload: CRC mismatch.
  std::string flipped = file;
  flipped[first.end_offset + 8] ^= 0x04;
  EXPECT_EQ(persist::ReadFrame(flipped, first.end_offset).status,
            FrameStatus::kCorrupt);

  // Torn tail: header or payload cut short.
  EXPECT_EQ(persist::ReadFrame(file.substr(0, 3), 0).status,
            FrameStatus::kTorn);
  EXPECT_EQ(persist::ReadFrame(file.substr(0, 10), 0).status,
            FrameStatus::kTorn);
}

Modification MakeInsert(Row post) {
  Modification mod;
  mod.kind = DiffType::kInsert;
  mod.post = std::move(post);
  return mod;
}

TEST(WalTest, RoundTripAllRecordTypes) {
  const std::string dir = FreshWalDir("wal_roundtrip");
  {
    auto wal = SegmentedWal::Open(dir);
    ASSERT_NE(wal, nullptr);
    EXPECT_EQ(wal->JournalModification(
                  "parts", MakeInsert({Value("P9"), Value(1.5)})),
              1u);
    Modification del;
    del.kind = DiffType::kDelete;
    del.pre = {Value("P9"), Value(1.5)};
    EXPECT_EQ(wal->JournalModification("parts", del), 2u);
    Modification upd;
    upd.kind = DiffType::kUpdate;
    upd.pre = {Value("P1"), Value(10.0)};
    upd.post = {Value("P1"), Value(11.0)};
    EXPECT_EQ(wal->JournalModification("parts", upd), 3u);
    EXPECT_EQ(wal->JournalCommit(), 4u);
    EXPECT_EQ(wal->JournalCheckpoint(4, "/some/snapshot"), 5u);
    EXPECT_EQ(wal->JournalQuarantine("v", "epoch failed"), 6u);
    EXPECT_EQ(wal->last_lsn(), 6u);
  }
  const SegmentedReadResult read = ReadSegmentedWal(dir);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_FALSE(read.truncated);
  ASSERT_EQ(read.segments.size(), 1u);  // a log that never rotated
  ASSERT_EQ(read.records.size(), 6u);
  EXPECT_EQ(read.records[0].type, WalRecordType::kInsert);
  EXPECT_EQ(read.records[0].table, "parts");
  EXPECT_EQ(read.records[0].mod.post[0].AsString(), "P9");
  EXPECT_EQ(read.records[1].type, WalRecordType::kDelete);
  EXPECT_EQ(read.records[2].type, WalRecordType::kUpdate);
  EXPECT_DOUBLE_EQ(read.records[2].mod.post[1].AsDouble(), 11.0);
  EXPECT_EQ(read.records[3].type, WalRecordType::kCommit);
  EXPECT_EQ(read.records[4].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(read.records[4].snapshot_lsn, 4u);
  EXPECT_EQ(read.records[4].snapshot_path, "/some/snapshot");
  EXPECT_EQ(read.records[5].type, WalRecordType::kQuarantine);
  EXPECT_EQ(read.records[5].table, "v");
  EXPECT_EQ(read.records[5].quarantine_reason, "epoch failed");
  ASSERT_EQ(read.record_ends.size(), read.records.size());
  for (size_t i = 0; i < read.records.size(); ++i) {
    EXPECT_EQ(read.records[i].lsn, i + 1);
    EXPECT_EQ(read.record_ends[i].segment, 0u);
    if (i > 0) {
      EXPECT_GT(read.record_ends[i].offset, read.record_ends[i - 1].offset);
    }
  }
  EXPECT_EQ(read.record_ends.back().offset, read.segments[0].bytes);
}

TEST(WalTest, TornTailTruncatesAtLastValidRecord) {
  const std::string dir = FreshWalDir("wal_torn");
  {
    auto wal = SegmentedWal::Open(dir);
    ASSERT_NE(wal, nullptr);
    for (int i = 0; i < 5; ++i) {
      wal->JournalModification(
          "t", MakeInsert({Value(int64_t{i}), Value("payload")}));
    }
    wal->JournalCommit();
  }
  const SegmentedReadResult full = ReadSegmentedWal(dir);
  ASSERT_TRUE(full.ok);
  ASSERT_EQ(full.records.size(), 6u);

  // Cut 3 bytes into the last record.
  const WalSegmentInfo segment = OnlySegment(dir);
  FaultFile fault(segment.path, segment.path);
  fault.TruncatedAt(full.record_ends[4].offset + 3);
  const SegmentedReadResult torn = ReadSegmentedWal(dir);
  ASSERT_TRUE(torn.ok);
  EXPECT_TRUE(torn.truncated);
  EXPECT_NE(torn.truncate_reason.find("torn"), std::string::npos);
  EXPECT_EQ(torn.torn_segment, segment.path);
  ASSERT_EQ(torn.records.size(), 5u);
  EXPECT_EQ(torn.record_ends.back().offset, full.record_ends[4].offset);
}

TEST(WalTest, BitFlipTruncatesAtCorruptRecord) {
  const std::string dir = FreshWalDir("wal_flip");
  {
    auto wal = SegmentedWal::Open(dir);
    ASSERT_NE(wal, nullptr);
    for (int i = 0; i < 4; ++i) {
      wal->JournalModification(
          "t", MakeInsert({Value(int64_t{i}), Value("some payload here")}));
    }
  }
  const SegmentedReadResult full = ReadSegmentedWal(dir);
  ASSERT_EQ(full.records.size(), 4u);
  // Flip a bit in the third record's payload.
  const WalSegmentInfo segment = OnlySegment(dir);
  FaultFile fault(segment.path, segment.path);
  fault.WithBitFlip(full.record_ends[2].offset - 5, 3);
  const SegmentedReadResult flipped = ReadSegmentedWal(dir);
  ASSERT_TRUE(flipped.ok);
  EXPECT_TRUE(flipped.truncated);
  ASSERT_EQ(flipped.records.size(), 2u);
  EXPECT_EQ(flipped.record_ends.back().offset, full.record_ends[1].offset);
}

TEST(WalTest, EmptyOrMissingFileIsValidEmptyLog) {
  const SegmentedReadResult missing =
      ReadSegmentedWal(TempPath("wal_never_created"));
  EXPECT_FALSE(missing.ok);  // unreadable is an error, not an empty log
  const std::string dir = FreshWalDir("wal_empty");
  const SegmentedReadResult empty = ReadSegmentedWal(dir);
  EXPECT_TRUE(empty.ok);
  EXPECT_TRUE(empty.records.empty());
  // A segment whose header never reached the disk holds no records.
  const std::string segment = dir + "/seg-00000000000000000001.wal";
  std::fclose(std::fopen(segment.c_str(), "wb"));
  const SegmentedReadResult headerless = ReadSegmentedWal(dir);
  EXPECT_TRUE(headerless.ok);
  EXPECT_FALSE(headerless.truncated);
  EXPECT_TRUE(headerless.records.empty());
}

TEST(WalTest, GarbageFileRejected) {
  const std::string dir = FreshWalDir("wal_garbage");
  const std::string segment = dir + "/seg-00000000000000000001.wal";
  std::FILE* f = std::fopen(segment.c_str(), "wb");
  std::fputs("this is not a wal at all, not even close", f);
  std::fclose(f);
  // A segment with a bad header is damage: nothing in it or after it is
  // read.
  const SegmentedReadResult read = ReadSegmentedWal(dir);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_TRUE(read.truncated);
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.torn_segment, segment);
  EXPECT_NE(read.truncate_reason.find("magic"), std::string::npos);
}

TEST(SnapshotTest, RoundTripTablesRepositoryAndLsn) {
  Database db;
  testing::LoadRunningExample(&db);
  ViewManager manager(&db);
  manager.DefineView("v", testing::RunningExampleSpjPlan(db));
  const std::string path = TempPath("snap_roundtrip.snap");
  ASSERT_EQ(WriteSnapshot(db, manager.SerializeRepository(), 42, path), "");

  Database restored;
  SnapshotLoadResult loaded = LoadSnapshotInto(&restored, path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.last_lsn, 42u);
  ASSERT_EQ(restored.TableNames(), db.TableNames());
  for (const std::string& name : db.TableNames()) {
    const Table& a = db.GetTable(name);
    const Table& b = restored.GetTable(name);
    EXPECT_EQ(a.schema(), b.schema()) << name;
    EXPECT_EQ(a.key_columns(), b.key_columns()) << name;
    EXPECT_TRUE(
        a.SnapshotUncounted().BagEquals(b.SnapshotUncounted()))
        << name;
  }
  ViewManager restored_manager(&restored);
  EXPECT_EQ(restored_manager.LoadRepository(loaded.repository), "");
  EXPECT_TRUE(restored_manager.HasView("v"));
}

TEST(SnapshotTest, WriteIsAtomicAndDetectsCorruption) {
  Database db;
  testing::LoadRunningExample(&db);
  const std::string path = TempPath("snap_atomic.snap");
  ASSERT_EQ(WriteSnapshot(db, "", 7, path), "");
  // No temp file left behind.
  std::string dummy;
  EXPECT_FALSE(persist::ReadFileToString(path + ".tmp", &dummy));

  // A flipped bit anywhere in the frame is detected at load.
  FaultFile fault(path, TempPath("snap_atomic_scratch.snap"));
  Database restored;
  const SnapshotLoadResult bad =
      LoadSnapshotInto(&restored, fault.WithBitFlip(fault.source_size() / 2,
                                                    5));
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("damaged"), std::string::npos);
}

TEST(SnapshotTest, FsyncFailureIsReported) {
  Database db;
  testing::LoadRunningExample(&db);
  const std::string path = TempPath("snap_fsync.bin");
  ASSERT_EQ(WriteSnapshot(db, "", 7, path), "");
  std::string before;
  ASSERT_TRUE(persist::ReadFileToString(path, &before));

  // The temp file is a symlink to /dev/null, where writes succeed and
  // fsync fails (EINVAL): the write must fail and leave `path` alone.
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  ASSERT_EQ(::symlink("/dev/null", tmp.c_str()), 0);
  const std::string error = WriteSnapshot(db, "", 8, path);
  EXPECT_NE(error.find("fsync"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::is_symlink(tmp));
  EXPECT_FALSE(std::filesystem::is_symlink(path));
  std::string after;
  ASSERT_TRUE(persist::ReadFileToString(path, &after));
  EXPECT_EQ(after, before);
  Database restored;
  const SnapshotLoadResult loaded = LoadSnapshotInto(&restored, path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.last_lsn, 7u);
}

// ---- End-to-end recovery on the running example ---------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  // Builds the durable engine, snapshots, runs `batches` refresh batches
  // of logged modifications, and returns without tearing the WAL down —
  // "the process then crashes".
  void RunWorkload(const std::string& tag, int batches) {
    snapshot_path_ = TempPath("rec_" + tag + ".snap");
    wal_dir_ = FreshWalDir("rec_" + tag + "_wal");
    db_ = std::make_unique<Database>();
    testing::LoadRunningExample(db_.get());
    manager_ = std::make_unique<ViewManager>(db_.get());
    manager_->DefineView("v", testing::RunningExampleSpjPlan(*db_));
    manager_->DefineView("vp", testing::RunningExampleAggPlan(*db_));
    wal_ = SegmentedWal::Open(wal_dir_);
    ASSERT_NE(wal_, nullptr);
    ASSERT_EQ(
        WriteSnapshot(*db_, manager_->SerializeRepository(), 0,
                      snapshot_path_),
        "");
    manager_->set_journal(wal_.get());
    int64_t next_part = 100;
    for (int b = 0; b < batches; ++b) {
      manager_->Insert("parts",
                       {Value(StrCat("P", next_part)), Value(b * 1.0)});
      manager_->Insert("devices_parts",
                       {Value("D1"), Value(StrCat("P", next_part))});
      manager_->Update("parts", {Value("P1")}, {"price"},
                       {Value(10.0 + b)});
      if (b % 3 == 2) {
        manager_->Delete("devices_parts",
                         {Value("D1"), Value(StrCat("P", next_part))});
      }
      ++next_part;
      manager_->Refresh();
    }
    wal_->Sync();
  }

  RecoverResult RecoverInto(Database* db, ViewManager* vm,
                            RecoverOptions options = {}) {
    return Recover(db, vm, snapshot_path_, wal_dir_, options);
  }

  std::string snapshot_path_;
  std::string wal_dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ViewManager> manager_;
  std::unique_ptr<SegmentedWal> wal_;
};

TEST_F(RecoveryTest, ReplayRestoresViewsExactly) {
  RunWorkload("replay", 7);
  Database db2;
  ViewManager vm2(&db2);
  const RecoverResult result = RecoverInto(&db2, &vm2);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.wal_truncated);
  EXPECT_EQ(result.batches_applied, 7u);
  EXPECT_EQ(result.records_discarded, 0u);
  EXPECT_GT(result.modifications_applied, 0u);
  EXPECT_TRUE(vm2.HasView("v"));
  EXPECT_TRUE(vm2.HasView("vp"));
  for (const char* view : {"v", "vp"}) {
    // Recovered contents match the pre-crash engine...
    EXPECT_TRUE(db2.GetTable(view).SnapshotUncounted().BagEquals(
        db_->GetTable(view).SnapshotUncounted()))
        << view;
    // ...and a from-scratch recompute over the recovered base tables.
    testing::ExpectViewMatchesRecompute(
        &db2, vm2.GetView(view).view().plan, view);
  }
  // The recovered engine keeps working: maintain a further change.
  vm2.Insert("parts", {Value("P999"), Value(5.0)});
  vm2.Insert("devices_parts", {Value("D2"), Value("P999")});
  vm2.Refresh();
  testing::ExpectViewMatchesRecompute(&db2, vm2.GetView("v").view().plan,
                                      "v");
}

// Loading the repository builds every index the views' programs probe,
// including those the replayed batches never reached: the first refresh
// after recovery builds none.
TEST_F(RecoveryTest, FirstRefreshAfterRecoverBuildsNoIndex) {
  RunWorkload("indexes", 1);
  Database db2;
  ViewManager vm2(&db2);
  const RecoverResult result = RecoverInto(&db2, &vm2);
  ASSERT_TRUE(result.ok) << result.error;
  const auto before = testing::IndexCounts(db2);
  vm2.Update("devices", {Value("D3")}, {"category"}, {Value("phone")});
  vm2.Delete("devices_parts", {Value("D1"), Value("P1")});
  vm2.Delete("parts", {Value("P3")});
  vm2.Refresh();
  EXPECT_EQ(testing::IndexCounts(db2), before);
  for (const char* view : {"v", "vp"}) {
    testing::ExpectViewMatchesRecompute(
        &db2, vm2.GetView(view).view().plan, view);
  }
}

TEST_F(RecoveryTest, RecomputeModeMatchesReplay) {
  RunWorkload("recompute", 5);
  Database replayed, recomputed;
  ViewManager vm_replay(&replayed), vm_recompute(&recomputed);
  const RecoverResult a = RecoverInto(&replayed, &vm_replay);
  const RecoverResult b = RecoverInto(
      &recomputed, &vm_recompute,
      RecoverOptions{.mode = RecoverMode::kRecompute});
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.last_applied_lsn, b.last_applied_lsn);
  for (const char* view : {"v", "vp"}) {
    EXPECT_TRUE(replayed.GetTable(view).SnapshotUncounted().BagEquals(
        recomputed.GetTable(view).SnapshotUncounted()))
        << view;
  }
}

TEST_F(RecoveryTest, UncommittedTailIsDiscarded) {
  RunWorkload("tail", 3);
  // Journal two more modifications with no COMMIT behind them.
  manager_->Insert("parts", {Value("P500"), Value(1.0)});
  manager_->Update("parts", {Value("P1")}, {"price"}, {Value(99.0)});
  wal_->Sync();

  Database db2;
  ViewManager vm2(&db2);
  const RecoverResult result = RecoverInto(&db2, &vm2);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records_discarded, 2u);
  EXPECT_EQ(result.batches_applied, 3u);
  // The uncommitted insert is not in the recovered state.
  EXPECT_FALSE(db2.GetTable("parts")
                   .LookupByKeyUncounted({Value("P500")})
                   .has_value());
  for (const char* view : {"v", "vp"}) {
    testing::ExpectViewMatchesRecompute(
        &db2, vm2.GetView(view).view().plan, view);
  }
}

TEST_F(RecoveryTest, ParallelReplayMatchesSequentialBitForBit) {
  RunWorkload("parallel", 6);
  Database seq_db, par_db;
  ViewManager seq_vm(&seq_db), par_vm(&par_db);
  const RecoverResult seq =
      RecoverInto(&seq_db, &seq_vm, RecoverOptions{.threads = 1});
  const RecoverResult par =
      RecoverInto(&par_db, &par_vm, RecoverOptions{.threads = 4});
  ASSERT_TRUE(seq.ok) << seq.error;
  ASSERT_TRUE(par.ok) << par.error;
  EXPECT_EQ(seq.last_applied_lsn, par.last_applied_lsn);
  // Deferred-charging determinism extends to recovery: identical contents
  // AND identical access counts across thread counts.
  EXPECT_EQ(seq.accesses.index_lookups, par.accesses.index_lookups);
  EXPECT_EQ(seq.accesses.tuple_reads, par.accesses.tuple_reads);
  EXPECT_EQ(seq.accesses.tuple_writes, par.accesses.tuple_writes);
  for (const char* view : {"v", "vp"}) {
    EXPECT_TRUE(seq_db.GetTable(view).SnapshotUncounted().BagEquals(
        par_db.GetTable(view).SnapshotUncounted()))
        << view;
  }
}

// A snapshot whose repository holds a script that does not compile fails
// recovery at load time, naming the view and the reason, before any batch
// is replayed.
TEST_F(RecoveryTest, UncompilableScriptFailsLoad) {
  RunWorkload("uncompilable", 2);
  ASSERT_EQ(WriteSnapshot(*db_,
                          testing::RepositoryOf(testing::SelectOnMissingColumn(
                              manager_->GetView("v").view(), "no_such_column")),
                          0, snapshot_path_),
            "");
  Database db2;
  ViewManager vm2(&db2);
  const RecoverResult result = RecoverInto(&db2, &vm2);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error.rfind("repository load failed: view v", 0), 0u)
      << result.error;
  EXPECT_NE(result.error.find("no_such_column"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.batches_applied, 0u);
  EXPECT_FALSE(vm2.HasView("v"));
}

TEST_F(RecoveryTest, MissingSnapshotReportsError) {
  RunWorkload("missing", 1);
  Database db2;
  ViewManager vm2(&db2);
  const RecoverResult result =
      Recover(&db2, &vm2, TempPath("no_such.snap"), wal_dir_);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot read"), std::string::npos);
}

}  // namespace
}  // namespace idivm
