// The serving layer: IngestQueue backpressure semantics (block / shed /
// coalesce) and the MaintenanceService end to end — apply + refresh
// against a live pump thread, the watchdog deadline tripping the
// degradation ladder, adaptive housekeeping (snapshot + WAL truncation),
// and the kill-and-resume chaos cycle: crash mid-stream, tear the WAL
// tail, recover, verify views ≡ recompute, restart and keep ingesting.

#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/view_manager.h"
#include "src/persist/recovery.h"
#include "src/persist/wal.h"
#include "src/persist/wal_set.h"
#include "src/serve/ingest_queue.h"
#include "src/serve/service.h"
#include "src/storage/database.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

using persist::ReadSegmentedWal;
using persist::Recover;
using persist::RecoverResult;
using persist::SegmentedReadResult;
using persist::TruncateFile;
using persist::WalSegmentInfo;
using serve::BackpressurePolicy;
using serve::IngestOp;
using serve::IngestQueue;
using serve::IngestQueueOptions;
using serve::MaintenanceService;
using serve::ServiceHealth;
using serve::ServiceOptions;
using serve::ServiceStats;
using ::idivm::testing::ExpectViewMatchesRecompute;
using ::idivm::testing::LoadRunningExample;
using ::idivm::testing::RunningExampleSpjPlan;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "idivm_serve_" + name;
  const int rc = std::system(("rm -rf '" + dir + "'").c_str());
  EXPECT_EQ(rc, 0);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

IngestOp UpdateOp(const std::string& key, double value,
                  const std::string& column = "x") {
  IngestOp op;
  op.kind = DiffType::kUpdate;
  op.table = "t";
  op.row = {Value(key)};
  op.set_columns = {column};
  op.values = {Value(value)};
  return op;
}

IngestOp DeleteOp(const std::string& key) {
  IngestOp op;
  op.kind = DiffType::kDelete;
  op.table = "t";
  op.row = {Value(key)};
  return op;
}

IngestOp InsertOp(const std::string& key) {
  IngestOp op;
  op.kind = DiffType::kInsert;
  op.table = "t";
  op.row = {Value(key), Value(1.0)};
  return op;
}

std::vector<IngestOp> Drain(IngestQueue* queue) {
  std::vector<IngestOp> out;
  queue->WaitAndDrain(&out, 0.0);
  return out;
}

TEST(ServeQueueTest, ShedDropsWhenFullAndCounts) {
  IngestQueue queue({.capacity = 2, .policy = BackpressurePolicy::kShed});
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 1.0)));
  EXPECT_TRUE(queue.Submit(UpdateOp("u2", 2.0)));
  EXPECT_FALSE(queue.Submit(UpdateOp("u3", 3.0)));  // full: shed
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.shed(), 1u);
  EXPECT_EQ(queue.accepted(), 2u);
  EXPECT_EQ(Drain(&queue).size(), 2u);
  EXPECT_TRUE(queue.Submit(UpdateOp("u3", 3.0)));  // space again
}

TEST(ServeQueueTest, CoalesceMergesSameKeyUpdatesLastWriteWins) {
  IngestQueue queue({.capacity = 16, .policy = BackpressurePolicy::kCoalesce});
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 1.0)));
  EXPECT_TRUE(queue.Submit(UpdateOp("u2", 2.0)));
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 3.0)));  // merges into the first
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.coalesced(), 1u);
  const std::vector<IngestOp> ops = Drain(&queue);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].row[0].ToString(), "u1");
  ASSERT_EQ(ops[0].values.size(), 1u);
  EXPECT_EQ(ops[0].values[0], Value(3.0));  // last write won
}

TEST(ServeQueueTest, CoalesceDeleteSupersedesPendingUpdates) {
  IngestQueue queue({.capacity = 16, .policy = BackpressurePolicy::kCoalesce});
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 1.0)));
  EXPECT_TRUE(queue.Submit(UpdateOp("u2", 2.0)));
  EXPECT_TRUE(queue.Submit(DeleteOp("u1")));  // drops u1's update, enqueues
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.coalesced(), 1u);
  const std::vector<IngestOp> ops = Drain(&queue);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].kind, DiffType::kUpdate);
  EXPECT_EQ(ops[0].row[0].ToString(), "u2");
  EXPECT_EQ(ops[1].kind, DiffType::kDelete);
  EXPECT_EQ(ops[1].row[0].ToString(), "u1");
}

TEST(ServeQueueTest, CoalesceNeverMergesInsertsOrDifferentColumns) {
  IngestQueue queue({.capacity = 16, .policy = BackpressurePolicy::kCoalesce});
  EXPECT_TRUE(queue.Submit(InsertOp("u1")));
  EXPECT_TRUE(queue.Submit(InsertOp("u1")));  // inserts never coalesce
  EXPECT_TRUE(queue.Submit(UpdateOp("u2", 1.0, "x")));
  EXPECT_TRUE(queue.Submit(UpdateOp("u2", 2.0, "y")));  // different columns
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.coalesced(), 0u);
  // An update after a pending delete of the same key must not merge
  // backwards through the delete barrier.
  EXPECT_TRUE(queue.Submit(DeleteOp("u3")));
  EXPECT_TRUE(queue.Submit(UpdateOp("u3", 9.0)));
  EXPECT_EQ(queue.depth(), 6u);
  EXPECT_EQ(queue.coalesced(), 0u);
}

TEST(ServeQueueTest, BlockWaitsUntilTheConsumerDrains) {
  IngestQueue queue({.capacity = 1, .policy = BackpressurePolicy::kBlock});
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 1.0)));
  std::future<bool> blocked = std::async(std::launch::async, [&queue] {
    return queue.Submit(UpdateOp("u2", 2.0));
  });
  // The producer stays blocked while the queue is full.
  EXPECT_EQ(blocked.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_EQ(Drain(&queue).size(), 1u);
  EXPECT_TRUE(blocked.get());  // woke and enqueued
  const std::vector<IngestOp> ops = Drain(&queue);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].row[0].ToString(), "u2");
}

TEST(ServeQueueTest, CloseWakesBlockedProducersAndKeepsPendingDrainable) {
  IngestQueue queue({.capacity = 1, .policy = BackpressurePolicy::kBlock});
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 1.0)));
  std::future<bool> blocked = std::async(std::launch::async, [&queue] {
    return queue.Submit(UpdateOp("u2", 2.0));
  });
  EXPECT_EQ(blocked.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  queue.Close();
  EXPECT_FALSE(blocked.get());  // woke and failed
  EXPECT_FALSE(queue.Submit(UpdateOp("u3", 3.0)));
  EXPECT_EQ(Drain(&queue).size(), 1u);  // pending op survives the close
}

// ---- MaintenanceService ----

ServiceOptions FastServiceOptions() {
  ServiceOptions options;
  options.refresh_pending_threshold = 4;
  options.refresh_interval_seconds = 0.002;
  options.poll_seconds = 0.001;
  return options;
}

TEST(ServeStreamTest, ServiceAppliesRefreshesAndCountsRejects) {
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));

  MaintenanceService service(&vm, &db, FastServiceOptions());
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;
  EXPECT_TRUE(service.running());

  ASSERT_TRUE(service.SubmitInsert("parts", {Value("P9"), Value(90.0)}));
  ASSERT_TRUE(
      service.SubmitUpdate("parts", {Value("P1")}, {"price"}, {Value(11.5)}));
  ASSERT_TRUE(service.SubmitDelete("devices_parts", {Value("D3"), Value("P2")}));
  ASSERT_TRUE(
      service.SubmitInsert("devices_parts", {Value("D1"), Value("P9")}));
  // Duplicate key: applied to the engine, rejected there, counted.
  ASSERT_TRUE(service.SubmitInsert("parts", {Value("P1"), Value(1.0)}));

  ASSERT_TRUE(service.WaitForQuiesce(20.0));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ops_applied, 4u);
  EXPECT_EQ(stats.ops_rejected, 1u);
  EXPECT_GE(stats.refreshes, 1u);
  EXPECT_EQ(stats.incidents, 0u);
  EXPECT_EQ(service.health(), ServiceHealth::kHealthy);
  // Every applied op contributed a staleness sample.
  EXPECT_EQ(service.StalenessSamples().size(), 4u);
  for (double sample : service.StalenessSamples()) EXPECT_GE(sample, 0.0);

  service.Stop();
  EXPECT_FALSE(service.running());
  EXPECT_FALSE(service.SubmitInsert("parts", {Value("P10"), Value(1.0)}));
  ExpectViewMatchesRecompute(&db, RunningExampleSpjPlan(db), "v",
                             "service end-to-end");
}

TEST(ServeStreamTest, DeadlineTripsTheDegradationLadder) {
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));

  ServiceOptions options = FastServiceOptions();
  // A watchdog that has already expired when armed: every epoch fails at
  // its first fault site and walks the ladder. The recompute rung is not
  // deadline-checked, so views still recover within the same refresh.
  options.deadline_seconds = 1e-9;
  MaintenanceService service(&vm, &db, options);
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.SubmitUpdate("parts", {Value("P1")}, {"price"},
                                     {Value(10.0 + i)}));
  }
  ASSERT_TRUE(service.WaitForQuiesce(20.0));
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.deadline_trips, 1u);
  EXPECT_GE(stats.incidents, 1u);
  EXPECT_EQ(service.health(), ServiceHealth::kHealthy);  // ladder recovered
  service.Stop();
  ExpectViewMatchesRecompute(&db, RunningExampleSpjPlan(db), "v",
                             "deadline-tripped refreshes");
}

TEST(ServeStreamTest, HousekeepingSnapshotsAndBoundsTheWal) {
  const std::string dir = FreshDir("housekeeping");
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));

  ServiceOptions options = FastServiceOptions();
  options.data_dir = dir;
  options.wal.rotate_bytes = 512;
  options.snapshot_every_records = 16;
  options.snapshot_every_bytes = 0;
  MaintenanceService service(&vm, &db, options);
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;

  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(service.SubmitUpdate("parts", {Value("P2")}, {"price"},
                                       {Value(20.0 + wave * 10 + i)}));
    }
    ASSERT_TRUE(service.WaitForQuiesce(20.0));
  }
  // Housekeeping runs on idle pump iterations after the record trigger;
  // give it a moment.
  for (int i = 0; i < 200 && service.stats().snapshots == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  service.Stop();

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.snapshots, 1u);
  EXPECT_EQ(stats.snapshot_failures, 0u);
  EXPECT_GT(stats.wal_bytes, 0u);

  // The truncated, rotated WAL plus the snapshot recover to the same
  // views the live engine held.
  Database db2;
  ViewManager vm2(&db2);
  const RecoverResult recovered =
      Recover(&db2, &vm2, dir + "/snapshot.bin", dir + "/wal");
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_GT(recovered.snapshot_lsn, 0u);  // a housekeeping snapshot, not
                                          // the bootstrap one
  ExpectViewMatchesRecompute(&db2, RunningExampleSpjPlan(db2), "v",
                             "recovered after housekeeping");
  EXPECT_TRUE(db2.GetTable("v").SnapshotUncounted().BagEquals(
      db.GetTable("v").SnapshotUncounted()));
}

// The kill-and-resume chaos cycle of ISSUE.md: ingest, crash without
// warning mid-stream, tear the WAL tail (the bytes the OS never made
// durable), recover, check views ≡ recompute, then resume ingest on the
// same data directory and land in a consistent, durable state again.
TEST(ServeStreamTest, KillAndResumeChaosCycle) {
  const std::string dir = FreshDir("chaos");
  ServiceOptions options = FastServiceOptions();
  options.data_dir = dir;
  options.wal.rotate_bytes = 2048;
  // No housekeeping snapshots: recovery must replay the whole stream.
  options.snapshot_every_records = 0;
  options.snapshot_every_bytes = 0;

  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));
  auto service = std::make_unique<MaintenanceService>(&vm, &db, options);
  std::string error;
  ASSERT_TRUE(service->Start(&error)) << error;

  // Phase 1: a quiesced prefix, guaranteed applied and committed.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(service->SubmitInsert(
        "parts", {Value("P1" + std::to_string(100 + i)), Value(1.0 * i)}));
    ASSERT_TRUE(service->SubmitUpdate("parts", {Value("P1")}, {"price"},
                                      {Value(10.0 + i)}));
  }
  ASSERT_TRUE(service->WaitForQuiesce(20.0));
  const uint64_t quiesced_lsn = service->stats().last_commit_lsn;

  // Phase 2: more ops, then crash mid-stream once at least one phase-2
  // batch has committed — later ops may still be queued and are
  // abandoned. Waiting for that commit puts the torn tail below in
  // phase 2; crashing before it would tear the quiesced prefix's last
  // COMMIT instead.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(service->SubmitInsert(
        "parts", {Value("P2" + std::to_string(100 + i)), Value(2.0 * i)}));
  }
  for (int i = 0; i < 2000 &&
                  service->stats().last_commit_lsn == quiesced_lsn;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(service->stats().last_commit_lsn, quiesced_lsn);
  service->Crash();
  service.reset();

  // Tear the active segment's tail: the crash lost the last few bytes.
  const std::string wal_dir = dir + "/wal";
  SegmentedReadResult damaged = ReadSegmentedWal(wal_dir);
  ASSERT_FALSE(damaged.segments.empty());
  const WalSegmentInfo& last = damaged.segments.back();
  if (last.bytes > 16) {
    ASSERT_TRUE(TruncateFile(last.path, last.bytes - 5));
  }

  // Recover and verify: whatever prefix survived, views ≡ recompute.
  Database db2;
  ViewManager vm2(&db2);
  RecoverResult recovered =
      Recover(&db2, &vm2, dir + "/snapshot.bin", dir + "/wal");
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_GE(recovered.batches_applied, 1u);  // the quiesced prefix survived
  ExpectViewMatchesRecompute(&db2, RunningExampleSpjPlan(db2), "v",
                             "after crash + torn WAL tail");
  // The quiesced phase-1 rows are durable.
  EXPECT_GE(db2.GetTable("parts").SnapshotUncounted().size(), 3u + 40u);

  // Resume on the same directory: Start truncates the WAL to the same
  // boundary recovery replayed to, so new appends extend the recovered
  // state.
  auto resumed = std::make_unique<MaintenanceService>(&vm2, &db2, options);
  ASSERT_TRUE(resumed->Start(&error)) << error;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(resumed->SubmitInsert(
        "parts", {Value("P3" + std::to_string(100 + i)), Value(3.0 * i)}));
    ASSERT_TRUE(resumed->SubmitUpdate("parts", {Value("P2")}, {"price"},
                                      {Value(40.0 + i)}));
  }
  ASSERT_TRUE(resumed->WaitForQuiesce(20.0));
  resumed->Stop();
  ExpectViewMatchesRecompute(&db2, RunningExampleSpjPlan(db2), "v",
                             "after resume");

  // And the whole thing is durable again: a second cold recovery replays
  // pre-crash and post-resume batches alike.
  Database db3;
  ViewManager vm3(&db3);
  recovered = Recover(&db3, &vm3, dir + "/snapshot.bin", dir + "/wal");
  ASSERT_TRUE(recovered.ok) << recovered.error;
  ExpectViewMatchesRecompute(&db3, RunningExampleSpjPlan(db3), "v",
                             "cold recovery after resume");
  EXPECT_TRUE(db3.GetTable("parts").SnapshotUncounted().BagEquals(
      db2.GetTable("parts").SnapshotUncounted()));
}

}  // namespace
}  // namespace idivm
