// Parallel ∆-script execution (MaintainOptions::threads > 1) must be
// observationally identical to sequential execution: same view contents and
// byte-identical AccessStats — per phase, database-wide, and per table —
// for every thread count. These tests assert that across the BSMA views,
// the running-example aggregate view, and repeated maintenance rounds
// (stats must never go backwards or double-count).

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/view_manager.h"
#include "src/exec/compiler.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

void ExpectStatsEq(const AccessStats& expected, const AccessStats& actual,
                   const std::string& label) {
  EXPECT_EQ(expected.index_lookups, actual.index_lookups) << label;
  EXPECT_EQ(expected.tuple_reads, actual.tuple_reads) << label;
  EXPECT_EQ(expected.tuple_writes, actual.tuple_writes) << label;
}

// Everything observable about one maintenance run (except wall time).
struct RunObservation {
  std::string view_contents;
  AccessStats diff_computation;
  AccessStats cache_update;
  AccessStats view_update;
  AccessStats database_wide;
  int64_t diff_tuples_applied = 0;
  int64_t rows_touched = 0;
  int64_t dummy_tuples = 0;
};

void ExpectObservationEq(const RunObservation& expected,
                         const RunObservation& actual,
                         const std::string& label) {
  EXPECT_EQ(expected.view_contents, actual.view_contents) << label;
  ExpectStatsEq(expected.diff_computation, actual.diff_computation,
                label + " [diff computation]");
  ExpectStatsEq(expected.cache_update, actual.cache_update,
                label + " [cache update]");
  ExpectStatsEq(expected.view_update, actual.view_update,
                label + " [view update]");
  ExpectStatsEq(expected.database_wide, actual.database_wide,
                label + " [database-wide]");
  EXPECT_EQ(expected.diff_tuples_applied, actual.diff_tuples_applied)
      << label;
  EXPECT_EQ(expected.rows_touched, actual.rows_touched) << label;
  EXPECT_EQ(expected.dummy_tuples, actual.dummy_tuples) << label;
}

RunObservation Observe(Database* db, const std::string& view,
                       const MaintainResult& result) {
  RunObservation obs;
  obs.view_contents =
      db->GetTable(view).SnapshotUncounted().Sorted().ToString();
  obs.diff_computation = result.diff_computation.accesses;
  obs.cache_update = result.cache_update.accesses;
  obs.view_update = result.view_update.accesses;
  obs.database_wide = db->stats();
  obs.diff_tuples_applied = result.diff_tuples_applied;
  obs.rows_touched = result.rows_touched;
  obs.dummy_tuples = result.dummy_tuples;
  return obs;
}

// Every BSMA view, every thread count: identical contents and stats. The
// config seed is fixed, so each fresh workload replays the exact same data
// and update diffs.
TEST(ParallelMaintainTest, BsmaViewsDeterministicAcrossThreadCounts) {
  BsmaConfig config;
  config.users = 400;  // small scale: 8 views × 4 thread counts
  const int64_t kUpdates = 40;
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    RunObservation baseline;
    for (const int threads : {1, 2, 4, 8}) {
      Database db;
      BsmaWorkload workload(&db, config);
      Maintainer m(&db, CompileView(view, workload.ViewPlan(view), db));
      ModificationLogger logger(&db);
      workload.ApplyUserUpdates(&logger, kUpdates);
      db.stats().Reset();
      const MaintainResult result =
          m.Maintain(logger.NetChanges(), MaintainOptions{.threads = threads});
      const RunObservation obs = Observe(&db, view, result);
      if (threads == 1) {
        baseline = obs;
        continue;
      }
      ExpectObservationEq(baseline, obs,
                          view + " threads=" + std::to_string(threads));
      testing::ExpectViewMatchesRecompute(&db, workload.ViewPlan(view), view,
                                          view + " vs recompute");
    }
  }
}

// The running-example aggregate view (γ step = blocking barrier) under a
// mixed insert/delete/update batch.
TEST(ParallelMaintainTest, AggregateViewDeterministicUnderMixedChanges) {
  auto run = [](int threads) -> RunObservation {
    Database db;
    testing::LoadRunningExample(&db);
    const PlanPtr plan = testing::RunningExampleAggPlan(db);
    Maintainer m(&db, CompileView("vagg", plan, db));
    ModificationLogger logger(&db);
    EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(35.0)}));
    EXPECT_TRUE(logger.Insert("devices", {Value("D4"), Value("phone")}));
    EXPECT_TRUE(logger.Insert("devices_parts", {Value("D4"), Value("P4")}));
    EXPECT_TRUE(logger.Insert("devices_parts", {Value("D2"), Value("P2")}));
    EXPECT_TRUE(
        logger.Update("parts", {Value("P1")}, {"price"}, {Value(12.0)}));
    EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P2")}));
    db.stats().Reset();
    const MaintainResult result =
        m.Maintain(logger.NetChanges(), MaintainOptions{.threads = threads});
    RunObservation obs = Observe(&db, "vagg", result);
    testing::ExpectViewMatchesRecompute(
        &db, plan, "vagg", "threads=" + std::to_string(threads));
    return obs;
  };
  const RunObservation baseline = run(1);
  for (const int threads : {2, 4, 8}) {
    ExpectObservationEq(baseline, run(threads),
                        "vagg threads=" + std::to_string(threads));
  }
}

// Regression for the shared-counter race the arenas exist to prevent:
// across repeated maintenance rounds the database-wide counters must be
// monotonically non-decreasing (a racy read-modify-write can lose updates,
// making totals go "backwards" relative to the work done) and must equal a
// sequential twin's counters after every round (no double-counting when
// arenas are published).
TEST(ParallelMaintainTest, StatsNeverRegressOrDoubleCountAcrossRounds) {
  BsmaConfig config;
  config.users = 300;

  Database par_db;
  BsmaWorkload par_workload(&par_db, config);
  Maintainer par_m(
      &par_db, CompileView("qs1", par_workload.ViewPlan("qs1"), par_db));

  Database seq_db;
  BsmaWorkload seq_workload(&seq_db, config);
  Maintainer seq_m(
      &seq_db, CompileView("qs1", seq_workload.ViewPlan("qs1"), seq_db));

  par_db.stats().Reset();
  seq_db.stats().Reset();
  AccessStats previous;  // zero
  for (int round = 0; round < 5; ++round) {
    const std::string label = "round " + std::to_string(round);
    {
      ModificationLogger logger(&par_db);
      par_workload.ApplyUserUpdates(&logger, 20);
      par_m.Maintain(logger.NetChanges(), MaintainOptions{.threads = 4});
    }
    {
      ModificationLogger logger(&seq_db);
      seq_workload.ApplyUserUpdates(&logger, 20);
      seq_m.Maintain(logger.NetChanges(), MaintainOptions{.threads = 1});
    }
    const AccessStats& current = par_db.stats();
    EXPECT_GE(current.index_lookups, previous.index_lookups) << label;
    EXPECT_GE(current.tuple_reads, previous.tuple_reads) << label;
    EXPECT_GE(current.tuple_writes, previous.tuple_writes) << label;
    EXPECT_GT(current.TotalAccesses(), previous.TotalAccesses()) << label;
    ExpectStatsEq(seq_db.stats(), current, label + " vs sequential twin");
    previous = current;
  }
}

// A fault injected into ONE worker of a parallel epoch must abort the
// whole epoch: every table rolled back byte-identically, stats exactly
// pre-epoch (failed epochs publish nothing), and a clean re-run at the
// same thread count must match the sequential baseline exactly. Runs under
// TSan in CI (the rollback path itself must be race-free).
TEST(ParallelMaintainTest, MidEpochFaultRollsBackAtEveryThreadCount) {
  BsmaConfig config;
  config.users = 200;
  const int64_t kUpdates = 25;

  auto snapshot_all = [](Database* db) {
    std::map<std::string, std::string> out;
    for (const std::string& name : db->TableNames()) {
      out[name] =
          db->GetTable(name).SnapshotUncounted().Sorted().ToString();
    }
    return out;
  };

  RunObservation baseline;
  for (const int threads : {1, 2, 4, 8}) {
    const std::string label = "threads=" + std::to_string(threads);
    Database db;
    BsmaWorkload workload(&db, config);
    Maintainer m(&db, CompileView("qs1", workload.ViewPlan("qs1"), db));
    ModificationLogger logger(&db);
    workload.ApplyUserUpdates(&logger, kUpdates);
    const auto net = logger.NetChanges();
    db.stats().Reset();

    // Size the fault surface with a never-firing probe on a twin database,
    // so the faulty run below can fail mid-script.
    uint64_t total_sites = 0;
    {
      Database twin;
      BsmaWorkload twin_workload(&twin, config);
      Maintainer twin_m(
          &twin, CompileView("qs1", twin_workload.ViewPlan("qs1"), twin));
      ModificationLogger twin_logger(&twin);
      twin_workload.ApplyUserUpdates(&twin_logger, kUpdates);
      FaultInjector probe;
      MaintainOptions options;
      options.threads = threads;
      options.fault = &probe;
      MaintainResult result;
      ASSERT_TRUE(
          twin_m.TryMaintain(twin_logger.NetChanges(), options, &result)
              .ok())
          << label;
      total_sites = probe.sites_visited();
    }
    ASSERT_GT(total_sites, 1u) << label;

    const std::map<std::string, std::string> before = snapshot_all(&db);
    const std::string stats_before = db.stats().ToString();

    FaultPlan plan;
    plan.fire_at_site = total_sites / 2;  // mid-epoch, whichever step owns it
    FaultInjector injector(plan);
    MaintainOptions options;
    options.threads = threads;
    options.fault = &injector;
    MaintainResult result;
    const Status status = m.TryMaintain(net, options, &result);
    ASSERT_FALSE(status.ok()) << label;
    EXPECT_EQ(status.code(), StatusCode::kInjectedFault) << label;

    const std::map<std::string, std::string> after = snapshot_all(&db);
    ASSERT_EQ(after.size(), before.size()) << label;
    for (const auto& [name, contents] : before) {
      EXPECT_EQ(after.at(name), contents) << label << ": table " << name;
    }
    EXPECT_EQ(db.stats().ToString(), stats_before) << label;

    // The epoch was all-or-nothing: a clean re-run lands exactly on the
    // sequential result.
    const MaintainResult clean =
        m.Maintain(net, MaintainOptions{.threads = threads});
    const RunObservation obs = Observe(&db, "qs1", clean);
    if (threads == 1) {
      baseline = obs;
    } else {
      ExpectObservationEq(baseline, obs, label + " after rollback");
    }
    testing::ExpectViewMatchesRecompute(&db, workload.ViewPlan("qs1"),
                                        "qs1", label);
  }
}

// Pre-state reads in parallel. Without caches the BSMA views' scripts read
// pre-state tables; refreshing the views concurrently, running each script
// over the rule DAG, or both must charge each view exactly what a
// sequential refresh charges and keep every view equal to its
// recomputation. Under ASan this also catches a pre-state table freed
// before the per-view arena holding its charges publishes.
TEST(ParallelMaintainTest, PreStateViewsMatchSequential) {
  BsmaConfig config;
  config.users = 200;
  CompilerOptions options;
  options.use_caches = false;
  using Rounds = std::vector<std::map<std::string, MaintainResult>>;
  const auto run = [&](int threads, int script_threads) {
    const std::string label = "threads=" + std::to_string(threads) +
                              " script_threads=" +
                              std::to_string(script_threads);
    Database db;
    BsmaWorkload workload(&db, config);
    ViewManager vm(&db);
    bool reads_pre_state = false;
    for (const std::string& view : BsmaWorkload::ViewNames()) {
      vm.DefineView(view, workload.ViewPlan(view), options);
      const auto program = exec::CompileProgram(vm.GetView(view).view(), db);
      EXPECT_TRUE(program.ok()) << view;
      reads_pre_state |= program.ok() && !program.value()->pre_state.empty();
    }
    EXPECT_TRUE(reads_pre_state);
    Rounds rounds;
    for (int round = 0; round < 3; ++round) {
      workload.ApplyUserUpdates(&vm.logger(), 30);
      RefreshReport report;
      const Status status = vm.TryRefresh(
          RefreshOptions{.threads = threads,
                         .script_threads = script_threads,
                         .degrade = DegradePolicy::kFailFast},
          &report);
      EXPECT_TRUE(status.ok()) << label << ": " << status.ToString();
      rounds.push_back(report.results);
      for (const std::string& view : BsmaWorkload::ViewNames()) {
        testing::ExpectViewMatchesRecompute(&db, workload.ViewPlan(view), view,
                                            view + " " + label);
      }
    }
    return rounds;
  };
  const Rounds baseline = run(1, 1);
  for (const auto& [threads, script_threads] :
       std::vector<std::pair<int, int>>{{4, 1}, {1, 4}, {4, 4}}) {
    const Rounds rounds = run(threads, script_threads);
    ASSERT_EQ(rounds.size(), baseline.size());
    for (size_t round = 0; round < rounds.size(); ++round) {
      ASSERT_EQ(rounds[round].size(), baseline[round].size());
      for (const auto& [view, want] : baseline[round]) {
        const MaintainResult& got = rounds[round].at(view);
        const std::string label = view + " round " + std::to_string(round) +
                                  " threads=" + std::to_string(threads) +
                                  " script_threads=" +
                                  std::to_string(script_threads);
        ExpectStatsEq(want.diff_computation.accesses,
                      got.diff_computation.accesses, label);
        ExpectStatsEq(want.cache_update.accesses, got.cache_update.accesses,
                      label);
        ExpectStatsEq(want.view_update.accesses, got.view_update.accesses,
                      label);
      }
    }
  }
}

// Sanity for the arena machinery itself: charges made under an arena reach
// the destination exactly once, on Publish, and nested arenas compose.
TEST(ParallelMaintainTest, StatsArenaPublishesExactlyOnce) {
  AccessStats real;
  StatsArena outer;
  {
    ScopedStatsArena outer_scope(&outer);
    {
      StatsArena inner;
      {
        ScopedStatsArena inner_scope(&inner);
        ChargeSink(&real).tuple_reads += 3;
        ChargeSink(&real).index_lookups += 2;
      }
      EXPECT_EQ(real.tuple_reads, 0);  // still deferred
      inner.Publish();  // lands in `outer`, not in `real`
    }
    EXPECT_EQ(real.tuple_reads, 0);
    EXPECT_EQ(outer.Sum(&real).tuple_reads, 3);
    EXPECT_EQ(outer.Sum(&real).index_lookups, 2);
  }
  outer.Publish();
  EXPECT_EQ(real.tuple_reads, 3);
  EXPECT_EQ(real.index_lookups, 2);
  EXPECT_EQ(real.tuple_writes, 0);
  outer.Publish();  // cleared by the first publish: must be a no-op
  EXPECT_EQ(real.tuple_reads, 3);
}

}  // namespace
}  // namespace idivm
