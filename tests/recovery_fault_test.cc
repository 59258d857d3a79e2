// Crash-recovery fault sweep (the durability acceptance test): builds a
// 1000-modification BSMA WAL of several segments behind a snapshot, then
// injects a crash at EVERY record boundary — plus torn-tail and bit-flip
// variants — and checks that recovery lands exactly on the last valid
// COMMIT with every recovered view identical to a from-scratch recompute
// over the recovered base tables.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/view_manager.h"
#include "src/persist/fault.h"
#include "src/persist/recovery.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal_set.h"
#include "src/workload/bsma.h"
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
using persist::WalPosition;
using persist::WalRecordType;
using persist::WriteSnapshot;
using ::idivm::testing::Scratch;

constexpr uint64_t kWalHeaderBytes = 8;  // magic + version
constexpr int kModifications = 1000;
constexpr int kCommitEvery = 50;
// Small enough that the golden WAL spans several segments, so the sweeps
// cross segment seams.
constexpr uint64_t kRotateBytes = 1 << 14;

// The golden pre-crash run, built once per process: a scaled-down BSMA
// instance with two views (a join chain and an aggregate), snapshotted at
// LSN 0, then 1000 user-update modifications journaled in 20
// COMMIT-delimited refresh batches across at least three segments.
struct Golden {
  std::string snapshot_path;
  std::string wal_dir;
  std::vector<std::string> views;
  SegmentedReadResult wal;  // pristine read: records, ends, segments
};

const Golden& GoldenRun() {
  static const Golden* golden = [] {
    auto* g = new Golden;
    g->snapshot_path = Scratch().Path("golden.snap");
    g->wal_dir = Scratch().Path("golden_wal");
    g->views = {"q7", "qs1"};
    std::filesystem::create_directory(g->wal_dir);

    Database db;
    BsmaConfig config;
    config.users = 50;
    config.friends_per_user = 5;
    BsmaWorkload workload(&db, config);
    ViewManager manager(&db);
    for (const std::string& view : g->views) {
      manager.DefineView(view, workload.ViewPlan(view));
    }
    auto wal = SegmentedWal::Open(
        g->wal_dir, SegmentedWalOptions{.rotate_bytes = kRotateBytes});
    IDIVM_CHECK(wal != nullptr);
    IDIVM_CHECK(WriteSnapshot(db, manager.SerializeRepository(), 0,
                              g->snapshot_path)
                    .empty());
    manager.set_journal(wal.get());
    for (int done = 0; done < kModifications; done += kCommitEvery) {
      workload.ApplyUserUpdates(&manager.logger(), kCommitEvery);
      manager.Refresh();
    }
    wal.reset();

    g->wal = ReadSegmentedWal(g->wal_dir);
    IDIVM_CHECK(g->wal.ok, g->wal.error);
    IDIVM_CHECK(!g->wal.truncated);
    IDIVM_CHECK(static_cast<int>(g->wal.records.size()) ==
                kModifications + kModifications / kCommitEvery);
    IDIVM_CHECK(g->wal.record_ends.back().segment >= 2,
                "the golden WAL must span at least three segments");
    return g;
  }();
  return *golden;
}

// Where record `r` of the golden WAL starts: the end of the record before
// it in the same segment, or just past its segment's header.
WalPosition RecordStart(const Golden& g, size_t r) {
  const size_t segment = g.wal.record_ends[r].segment;
  if (r > 0 && g.wal.record_ends[r - 1].segment == segment) {
    return g.wal.record_ends[r - 1];
  }
  return WalPosition{segment, kWalHeaderBytes};
}

// Materializes the golden WAL directory at a scratch directory with one
// fault in one segment: the segments before it whole, and the ones after
// it removed (a crash cut the stream there) or kept (media damage).
class FaultyWal {
 public:
  explicit FaultyWal(const std::string& name) : dir_(Scratch().Path(name)) {
    std::filesystem::create_directory(dir_);
    for (const auto& segment : GoldenRun().wal.segments) {
      const std::string scratch =
          dir_ + "/" + std::filesystem::path(segment.path).filename().string();
      files_.push_back(std::make_unique<FaultFile>(segment.path, scratch));
    }
  }

  // The stream cut at `at`: a crash right after those bytes hit the disk.
  const std::string& CutAt(WalPosition at) {
    for (size_t s = 0; s < files_.size(); ++s) {
      if (s < at.segment) {
        files_[s]->Pristine();
      } else if (s == at.segment) {
        files_[s]->TruncatedAt(at.offset);
      } else {
        std::filesystem::remove(files_[s]->path());
      }
    }
    return dir_;
  }

  // The whole stream with bit `bit` of byte `at` flipped.
  const std::string& FlippedAt(WalPosition at, int bit) {
    for (size_t s = 0; s < files_.size(); ++s) {
      if (s == at.segment) {
        files_[s]->WithBitFlip(at.offset, bit);
      } else {
        files_[s]->Pristine();
      }
    }
    return dir_;
  }

 private:
  std::string dir_;
  std::vector<std::unique_ptr<FaultFile>> files_;
};

// What recovery must reconstruct when only the first `records` records of
// the golden WAL survive: the LSN of the last COMMIT among them, and how
// many valid modification records follow it (they must be discarded).
struct ExpectedAtCut {
  uint64_t commit_lsn = 0;
  uint64_t discarded = 0;
};

ExpectedAtCut ExpectationFor(const Golden& g, size_t records) {
  ExpectedAtCut expected;
  for (size_t i = 0; i < records; ++i) {
    if (g.wal.records[i].type == WalRecordType::kCommit) {
      expected.commit_lsn = g.wal.records[i].lsn;
      expected.discarded = 0;
    } else {
      ++expected.discarded;
    }
  }
  return expected;
}

// Recovers from the golden snapshot plus `wal_dir`, then asserts the
// recovered state is exactly the last valid COMMIT: LSN bookkeeping matches
// `expected`, and every view equals recomputing its plan from the recovered
// base tables.
void ExpectRecoversTo(const std::string& wal_dir, const ExpectedAtCut& expected,
                      const std::string& context) {
  const Golden& g = GoldenRun();
  Database db;
  ViewManager manager(&db);
  const RecoverResult result = Recover(&db, &manager, g.snapshot_path, wal_dir);
  ASSERT_TRUE(result.ok) << context << ": " << result.error;
  EXPECT_EQ(result.last_applied_lsn,
            expected.commit_lsn == 0 ? result.snapshot_lsn
                                     : expected.commit_lsn)
      << context;
  EXPECT_EQ(result.records_discarded, expected.discarded) << context;
  for (const std::string& view : g.views) {
    ASSERT_TRUE(manager.HasView(view)) << context;
    testing::ExpectViewMatchesRecompute(
        &db, manager.GetView(view).view().plan, view, context);
  }
}

TEST(RecoveryFaultTest, CrashAtEveryRecordBoundary) {
  const Golden& g = GoldenRun();
  FaultyWal faulty("boundary");
  // Boundary 0 is "crashed before any record made it out" (the first
  // segment's header only); boundary i > 0 is "crashed right after record
  // i-1 hit the disk", in whichever segment it ended.
  for (size_t i = 0; i <= g.wal.records.size(); ++i) {
    const WalPosition cut = (i == 0) ? WalPosition{0, kWalHeaderBytes}
                                     : g.wal.record_ends[i - 1];
    SCOPED_TRACE(StrCat("boundary ", i, " (segment ", cut.segment, ", ",
                        cut.offset, " bytes)"));
    ExpectRecoversTo(faulty.CutAt(cut), ExpectationFor(g, i),
                     StrCat("crash after record ", i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RecoveryFaultTest, TornRecordInTail) {
  const Golden& g = GoldenRun();
  FaultyWal faulty("torn");
  // Records to tear: a sample through the stream plus the first record of
  // every segment after the first, so a tear also lands right after a
  // seam.
  std::vector<size_t> torn;
  for (size_t r = 1; r < g.wal.records.size(); r += 111) torn.push_back(r);
  for (size_t r = 1; r < g.wal.records.size(); ++r) {
    if (g.wal.record_ends[r].segment != g.wal.record_ends[r - 1].segment) {
      torn.push_back(r);
    }
  }
  // Cut a few bytes into the torn record, so it is the final, partial
  // record. Recovery must truncate it away and land on the last COMMIT
  // before the tear.
  for (const size_t r : torn) {
    const WalPosition start = RecordStart(g, r);
    for (const uint64_t delta : {uint64_t{1}, uint64_t{3}, uint64_t{9}}) {
      const WalPosition cut{start.segment, start.offset + delta};
      ASSERT_LT(cut.offset, g.wal.record_ends[r].offset);
      SCOPED_TRACE(StrCat("tear in record ", r, " at segment ", cut.segment,
                          ", byte ", cut.offset));
      const std::string& dir = faulty.CutAt(cut);
      const SegmentedReadResult read = ReadSegmentedWal(dir);
      ASSERT_TRUE(read.ok) << read.error;
      EXPECT_TRUE(read.truncated);
      ASSERT_EQ(read.records.size(), r);
      EXPECT_EQ(read.record_ends.back().segment,
                g.wal.record_ends[r - 1].segment);
      EXPECT_EQ(read.record_ends.back().offset,
                g.wal.record_ends[r - 1].offset);
      ExpectRecoversTo(dir, ExpectationFor(g, r), StrCat("tear in record ", r));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(RecoveryFaultTest, BitFlipInBody) {
  const Golden& g = GoldenRun();
  FaultyWal faulty("flip");
  uint64_t stream_bytes = 0;
  for (const auto& segment : g.wal.segments) stream_bytes += segment.bytes;
  // Flip one bit at several depths of the concatenated stream. Everything
  // from the damaged record on is untrusted — including every later, intact
  // segment; recovery must stop at the last COMMIT before the damage.
  for (const double depth : {0.1, 0.33, 0.5, 0.75, 0.97}) {
    auto remaining =
        static_cast<uint64_t>(depth * static_cast<double>(stream_bytes));
    WalPosition flip;
    while (remaining >= g.wal.segments[flip.segment].bytes) {
      remaining -= g.wal.segments[flip.segment].bytes;
      ++flip.segment;
    }
    flip.offset = remaining;
    // The record containing the flipped byte is the first of its segment
    // whose end lies past it (a flip in a header damages the first).
    size_t damaged = 0;
    while (damaged < g.wal.records.size() &&
           (g.wal.record_ends[damaged].segment < flip.segment ||
            (g.wal.record_ends[damaged].segment == flip.segment &&
             g.wal.record_ends[damaged].offset <= flip.offset))) {
      ++damaged;
    }
    SCOPED_TRACE(StrCat("bit flip at segment ", flip.segment, ", byte ",
                        flip.offset));
    const std::string& dir = faulty.FlippedAt(flip, 6);
    const SegmentedReadResult read = ReadSegmentedWal(dir);
    ASSERT_TRUE(read.ok) << read.error;
    EXPECT_TRUE(read.truncated);
    EXPECT_EQ(read.segments.size(), g.wal.segments.size());
    EXPECT_EQ(read.torn_segment, read.segments[flip.segment].path);
    EXPECT_LE(read.records.size(), damaged);
    ExpectRecoversTo(dir, ExpectationFor(g, read.records.size()),
                     StrCat("bit flip at segment ", flip.segment, ", byte ",
                            flip.offset));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RecoveryFaultTest, CorruptSnapshotFailsGracefully) {
  const Golden& g = GoldenRun();
  FaultFile fault(g.snapshot_path, Scratch().Path("corrupt.snap"));
  Database db;
  ViewManager manager(&db);
  const RecoverResult result =
      Recover(&db, &manager,
              fault.WithBitFlip(fault.source_size() / 2, 2), g.wal_dir);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RecoveryFaultTest, PristineWalRecoversFullState) {
  const Golden& g = GoldenRun();
  const ExpectedAtCut expected = ExpectationFor(g, g.wal.records.size());
  EXPECT_EQ(expected.discarded, 0u);
  ExpectRecoversTo(g.wal_dir, expected, "pristine");
}

}  // namespace
}  // namespace idivm
