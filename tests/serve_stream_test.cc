// The serving layer: IngestQueue backpressure semantics (block / shed /
// coalesce) and the pump's wait; MaintenanceService::Step driven at
// chosen times (each refresh trigger and the due time it returns, repair
// pacing and health, the snapshot record trigger); and the service end to
// end — apply + refresh against a live pump thread, WaitForQuiesce
// returning only with every op applied, the watchdog deadline tripping the
// degradation ladder, adaptive housekeeping (snapshot + WAL truncation),
// the exporter's last write, and the kill-and-resume chaos cycle: crash
// mid-stream, tear the WAL tail, recover, verify views ≡ recompute,
// restart and keep ingesting.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/view_manager.h"
#include "src/obs/metrics.h"
#include "src/persist/recovery.h"
#include "src/persist/wal.h"
#include "src/persist/wal_set.h"
#include "src/robust/fault_injection.h"
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
using persist::SegmentedWal;
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
using Clock = MaintenanceService::Clock;

constexpr Clock::duration kTick = std::chrono::nanoseconds(1);

// An empty directory under this process's scratch (repeats reuse it).
std::string FreshDir(const std::string& name) {
  const std::string dir = ::idivm::testing::Scratch().Path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
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

TEST(ServeQueueTest, ShedDropsWhenFullAndCounts) {
  IngestQueue queue({.capacity = 2, .policy = BackpressurePolicy::kShed});
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 1.0)));
  EXPECT_TRUE(queue.Submit(UpdateOp("u2", 2.0)));
  EXPECT_FALSE(queue.Submit(UpdateOp("u3", 3.0)));  // full: shed
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.shed(), 1u);
  EXPECT_EQ(queue.accepted(), 2u);
  EXPECT_EQ(queue.Drain().size(), 2u);
  EXPECT_TRUE(queue.Submit(UpdateOp("u3", 3.0)));  // space again
}

TEST(ServeQueueTest, CoalesceMergesSameKeyUpdatesLastWriteWins) {
  IngestQueue queue({.capacity = 16, .policy = BackpressurePolicy::kCoalesce});
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 1.0)));
  EXPECT_TRUE(queue.Submit(UpdateOp("u2", 2.0)));
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 3.0)));  // merges into the first
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.coalesced(), 1u);
  const std::vector<IngestOp> ops = queue.Drain();
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
  const std::vector<IngestOp> ops = queue.Drain();
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
  EXPECT_EQ(queue.Drain().size(), 1u);
  EXPECT_TRUE(blocked.get());  // woke and enqueued
  const std::vector<IngestOp> ops = queue.Drain();
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
  EXPECT_EQ(queue.Drain().size(), 1u);  // pending op survives the close
}

TEST(ServeQueueTest, WaitUntilWakesOnOpWakeDueAndClose) {
  IngestQueue queue({.capacity = 4, .policy = BackpressurePolicy::kBlock});
  // Nothing pending: the wait ends at its due time.
  EXPECT_TRUE(queue.WaitUntil(Clock::now()));
  // A pending op ends it at once, and the wait does not drain it.
  EXPECT_TRUE(queue.Submit(UpdateOp("u1", 1.0)));
  EXPECT_TRUE(queue.WaitUntil(Clock::time_point::max()));
  EXPECT_EQ(queue.Drain().size(), 1u);
  // A wake before the wait is not lost, and one wake ends one wait.
  queue.Wake();
  EXPECT_TRUE(queue.WaitUntil(Clock::time_point::max()));
  std::future<bool> waiting = std::async(std::launch::async, [&queue] {
    return queue.WaitUntil(Clock::time_point::max());
  });
  EXPECT_EQ(waiting.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  queue.Close();
  EXPECT_FALSE(waiting.get());  // closed: the waiter returns false
  EXPECT_FALSE(queue.WaitUntil(Clock::time_point::max()));
}

// ---- MaintenanceService ----

ServiceOptions FastServiceOptions() {
  ServiceOptions options;
  options.refresh_pending_threshold = 4;
  options.refresh_interval_seconds = 0.002;
  return options;
}

bool SubmitPrice(MaintenanceService* service, const std::string& pid,
                 double price) {
  return service->SubmitUpdate("parts", {Value(pid)}, {"price"},
                               {Value(price)});
}

// ---- Step at chosen times (the pump stays off) ----

TEST(ServeStepTest, EachRefreshTriggerFiresExactlyWhenDue) {
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));
  ServiceOptions options;
  options.refresh_pending_threshold = 3;
  // Far longer than the test runs, so real op stamps all fall within
  // the first interval.
  options.refresh_interval_seconds = 100;
  const Clock::duration interval = std::chrono::seconds(100);
  MaintenanceService service(&vm, &db, options);
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;

  // Nothing pending: nothing is due. The first step starts the interval.
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(service.Step(t0), Clock::time_point::max());

  // Trigger "the interval has passed since the last refresh ended" (the
  // first step stands in for it): one op, submitted after t0, is due at
  // t0 + interval and not a tick earlier.
  ASSERT_TRUE(SubmitPrice(&service, "P1", 11.0));
  EXPECT_EQ(service.Step(t0), t0 + interval);
  EXPECT_EQ(service.Step(t0 + interval - kTick), t0 + interval);
  EXPECT_EQ(service.stats().ops_applied, 1u);
  EXPECT_EQ(service.stats().refreshes, 0u);
  EXPECT_EQ(service.Step(t0 + interval), Clock::time_point::max());
  EXPECT_EQ(service.stats().refreshes, 1u);

  // Trigger "the oldest pending op is at least the interval old": the op
  // is stamped when submitted, long before the last refresh ended, so it
  // sets the due time.
  const Clock::time_point before = Clock::now();
  ASSERT_TRUE(SubmitPrice(&service, "P1", 12.0));
  const Clock::time_point after = Clock::now();
  const Clock::time_point due = service.Step(t0 + interval);
  EXPECT_GE(due, before + interval);
  EXPECT_LE(due, after + interval);
  EXPECT_EQ(service.Step(due - kTick), due);
  EXPECT_EQ(service.stats().refreshes, 1u);
  EXPECT_EQ(service.Step(due), Clock::time_point::max());
  EXPECT_EQ(service.stats().refreshes, 2u);

  // Trigger "pending >= refresh_pending_threshold": with no time trigger
  // due, the third pending op refreshes at once.
  ASSERT_TRUE(SubmitPrice(&service, "P1", 13.0));
  ASSERT_TRUE(SubmitPrice(&service, "P2", 21.0));
  service.Step(due);
  EXPECT_EQ(service.stats().refreshes, 2u);
  ASSERT_TRUE(SubmitPrice(&service, "P3", 22.0));
  EXPECT_EQ(service.Step(due), Clock::time_point::max());
  EXPECT_EQ(service.stats().refreshes, 3u);
  EXPECT_EQ(service.stats().ops_applied, 5u);
  EXPECT_EQ(service.StalenessSamples().size(), 5u);

  service.Stop();
  ExpectViewMatchesRecompute(&db, RunningExampleSpjPlan(db), "v",
                             "stepped refresh triggers");
}

TEST(ServeStepTest, RepairIsPacedByTheBackoffAndRestoresHealth) {
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));
  // The first refresh's first fault site fails, and fail-fast leaves the
  // rolled-back view for the service to repair.
  FaultPlan plan;
  plan.fire_at_site = 0;
  plan.max_fires = 1;
  FaultInjector fault(plan);
  ServiceOptions options;
  options.refresh_pending_threshold = 1;
  options.degrade = DegradePolicy::kFailFast;
  options.fault = &fault;
  options.repair_backoff.base_seconds = 2;
  options.repair_backoff.max_seconds = 8;
  const Clock::duration base = std::chrono::seconds(2);
  MaintenanceService service(&vm, &db, options);
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;
  EXPECT_EQ(service.health(), ServiceHealth::kHealthy);

  const Clock::time_point t0 = Clock::now();
  ASSERT_TRUE(SubmitPrice(&service, "P1", 11.0));
  EXPECT_EQ(service.Step(t0), t0 + base);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.refresh_failures, 1u);
  EXPECT_EQ(stats.incidents, 1u);
  EXPECT_EQ(stats.repairs, 0u);
  EXPECT_EQ(service.health(), ServiceHealth::kDegraded);

  // No repair before t0 + base_seconds...
  EXPECT_EQ(service.Step(t0 + base - kTick), t0 + base);
  EXPECT_EQ(service.stats().repairs, 0u);
  EXPECT_EQ(service.health(), ServiceHealth::kDegraded);
  // ...and exactly one at it, which returns the view to service.
  EXPECT_EQ(service.Step(t0 + base), Clock::time_point::max());
  EXPECT_EQ(service.stats().repairs, 1u);
  EXPECT_EQ(service.health(), ServiceHealth::kHealthy);

  service.Stop();
  ExpectViewMatchesRecompute(&db, RunningExampleSpjPlan(db), "v",
                             "repaired view");
}

TEST(ServeStepTest, SnapshotRecordTriggerCountsTheServicesWal) {
  const std::string dir = FreshDir("step_snapshot");
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));
  ServiceOptions options;
  options.data_dir = dir;
  options.refresh_pending_threshold = 1;
  options.snapshot_every_records = 6;
  options.snapshot_every_bytes = 0;
  MaintenanceService service(&vm, &db, options);
  std::string error;
  ASSERT_TRUE(service.Open(&error)) << error;
  // The bootstrap checkpoint is the service's last checkpoint.
  const uint64_t checkpoint = service.wal()->last_lsn();
  ASSERT_GT(checkpoint, 0u);

  // Each step journals one modification and one COMMIT: 2, 4 and then 6
  // records past the checkpoint, the third reaching the trigger.
  const Clock::time_point now = Clock::now();
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(SubmitPrice(&service, "P1", 10.0 + i));
    service.Step(now);
    EXPECT_EQ(service.stats().snapshots, i < 3 ? 0u : 1u) << "step " << i;
  }
  // The snapshot covers the six records; its CHECKPOINT is the seventh
  // and restarts the count.
  EXPECT_EQ(service.wal()->last_lsn(), checkpoint + 7);
  for (int i = 4; i <= 5; ++i) {
    ASSERT_TRUE(SubmitPrice(&service, "P1", 10.0 + i));
    service.Step(now);
  }
  EXPECT_EQ(service.stats().snapshots, 1u);
  EXPECT_EQ(service.stats().snapshot_failures, 0u);
  service.Stop();
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
  ASSERT_TRUE(
      service.SubmitDelete("devices_parts", {Value("D3"), Value("P2")}));
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

// WaitForQuiesce steps on the calling thread under the engine lock, so it
// cannot return while the pump holds a drained batch it has not applied.
TEST(ServeStreamTest, QuiesceReturnsWithEverySubmittedOpApplied) {
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));
  MaintenanceService service(&vm, &db, FastServiceOptions());
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;

  uint64_t submitted = 0;
  for (int round = 0; round < 50; ++round) {
    const std::string pid = "P" + std::to_string(100 + round);
    ASSERT_TRUE(service.SubmitInsert("parts", {Value(pid), Value(1.0)}));
    ASSERT_TRUE(SubmitPrice(&service, "P1", 10.0 + round));
    // A duplicate key: applied to the engine, rejected there.
    ASSERT_TRUE(service.SubmitInsert("parts", {Value(pid), Value(2.0)}));
    submitted += 3;
    ASSERT_TRUE(service.WaitForQuiesce(20.0));
    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.ops_applied + stats.ops_rejected, submitted)
        << "round " << round;
    ASSERT_EQ(service.StalenessSamples().size(), stats.ops_applied)
        << "round " << round;
  }
  service.Stop();
  ExpectViewMatchesRecompute(&db, RunningExampleSpjPlan(db), "v",
                             "quiesce rounds");
}

TEST(ServeStreamTest, StoppedServiceCannotBeRestarted) {
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));
  MaintenanceService service(&vm, &db, FastServiceOptions());
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;
  service.Stop();

  EXPECT_FALSE(service.Start(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service.running());
  EXPECT_FALSE(SubmitPrice(&service, "P1", 11.0));
}

// The snapshot record trigger counts the service's own WAL: another
// journal in the same process does not fire it.
TEST(ServeStreamTest, SnapshotTriggerIgnoresOtherJournals) {
  const std::string dir = FreshDir("own_wal");
  const std::string other_dir = FreshDir("other_wal");
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));
  ServiceOptions options = FastServiceOptions();
  options.data_dir = dir;
  options.snapshot_every_records = 16;
  options.snapshot_every_bytes = 0;
  MaintenanceService service(&vm, &db, options);
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;

  std::unique_ptr<SegmentedWal> other = SegmentedWal::Open(other_dir);
  ASSERT_NE(other, nullptr);
  for (int i = 0; i < 20; ++i) other->JournalCommit();

  ASSERT_TRUE(SubmitPrice(&service, "P1", 11.0));
  ASSERT_TRUE(service.WaitForQuiesce(20.0));
  service.Stop();
  EXPECT_EQ(service.stats().snapshots, 0u);
}

int64_t PrometheusSample(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stoll(line.substr(name.size() + 1));
    }
  }
  ADD_FAILURE() << "no sample " << name;
  return -1;
}

// Stop stops the exporter after the final refresh, so the file's last
// write carries the values the registry holds after Stop.
TEST(ServeStreamTest, ExporterLastWriteFollowsTheFinalRefresh) {
  const std::string dir = FreshDir("exporter");
  Database db;
  LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v", RunningExampleSpjPlan(db));
  ServiceOptions options = FastServiceOptions();
  options.export_path = dir + "/metrics.prom";
  // Only the first write and the last one happen in this test.
  options.export_interval_seconds = 3600;
  MaintenanceService service(&vm, &db, options);
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.SubmitInsert(
        "parts", {Value("P" + std::to_string(100 + i)), Value(1.0)}));
  }
  service.Stop();

  std::ifstream file(options.export_path);
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  const int64_t refreshes =
      obs::GlobalCounter("idivm_refreshes_total").value();
  EXPECT_GT(refreshes, 0);
  EXPECT_EQ(PrometheusSample(text.str(), "idivm_refreshes_total"),
            refreshes);
  EXPECT_EQ(PrometheusSample(text.str(), "idivm_ingest_accepted_total"),
            obs::GlobalCounter("idivm_ingest_accepted_total").value());
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
  // WaitForQuiesce's steps housekeep right after their refresh, so the
  // record trigger has fired by now.
  EXPECT_GE(service.stats().snapshots, 1u);
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
  // batch has committed — the ops submitted after it may be applied,
  // journaled or still queued, and queued ones are abandoned. Committing
  // first puts the torn tail below in phase 2; crashing before it would
  // tear the quiesced prefix's last COMMIT instead.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(service->SubmitInsert(
        "parts", {Value("P2" + std::to_string(100 + i)), Value(2.0 * i)}));
  }
  ASSERT_TRUE(service->WaitForQuiesce(20.0));
  ASSERT_GT(service->stats().last_commit_lsn, quiesced_lsn);
  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE(service->SubmitInsert(
        "parts", {Value("P2" + std::to_string(100 + i)), Value(2.0 * i)}));
  }
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
