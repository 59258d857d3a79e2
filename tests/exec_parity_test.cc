// Executor parity: the ∆-script executor (src/exec) must reach the same
// observable outcome — table contents, AccessStats, MaintainResult, error
// messages, counter deltas and rollback — wherever one epoch can be reached
// two ways: at 1/2/4/8 script threads, faulted-then-retried versus clean,
// under an op budget at every thread count, from a serialized-then-loaded
// script versus the in-memory one, through fault storms on the degradation
// ladder versus a fault-free refresh, and in snapshot-read mode versus
// plain mode. Any divergence is an executor bug.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/script_io.h"
#include "src/core/view_manager.h"
#include "src/obs/metrics.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

std::map<std::string, std::string> SnapshotAll(Database* db) {
  std::map<std::string, std::string> out;
  for (const std::string& name : db->TableNames()) {
    out[name] = db->GetTable(name).SnapshotUncounted().Sorted().ToString();
  }
  return out;
}

std::string JoinSnapshots(const std::map<std::string, std::string>& tables) {
  std::string out;
  for (const auto& [name, contents] : tables) {
    out += "== " + name + " ==\n" + contents;
  }
  return out;
}

// The chaos-test change batch: touches all three running-example base
// tables so both the SPJ chain and the γ step run.
std::map<std::string, std::vector<Modification>> MakeNetChanges(
    Database* db) {
  ModificationLogger logger(db);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"},
                            {Value(11.0)}));
  EXPECT_TRUE(logger.Insert("parts", {Value("P5"), Value(50.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D1"), Value("P5")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D2"), Value("P1")}));
  EXPECT_TRUE(logger.Update("devices", {Value("D3")}, {"category"},
                            {Value("phone")}));
  return logger.NetChanges();
}

// Counter values parsed out of the global registry's text export; used to
// compare per-epoch counter *deltas* between runs. Labelled counter names
// contain spaces, so the value is the last space-separated token.
std::map<std::string, int64_t> CounterSnapshot() {
  std::map<std::string, int64_t> out;
  const std::string text = obs::MetricsRegistry::Global().ExportText();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("counter ", 0) != 0) continue;
    const size_t split = line.rfind(' ');
    out[line.substr(8, split - 8)] = std::stoll(line.substr(split + 1));
  }
  return out;
}

std::map<std::string, int64_t> CounterDelta(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const int64_t prior = it != before.end() ? it->second : 0;
    if (value != prior) delta[name] = value - prior;
  }
  return delta;
}

// Everything observable from one maintenance epoch of the running example.
struct EpochOutcome {
  StatusCode code = StatusCode::kOk;
  std::string status;           // Status::ToString()
  std::string before;           // all tables + stats ahead of the epoch
  std::string tables;           // all tables, sorted, concatenated
  std::string stats;            // AccessStats::ToString()
  std::string result;           // MaintainResult::ToString() (empty on error)
  uint64_t sites_visited = 0;   // fault surface size
  int faults_fired = 0;
  std::map<std::string, int64_t> counters;  // deltas over the epoch
  // After a failed epoch, the same maintainer retried with no fault and
  // no budget: tables, stats and result. Empty when the epoch committed.
  std::string retried;
};

EpochOutcome RunEpoch(const std::string& shape, int threads,
                      std::optional<uint64_t> fire_at_site = std::nullopt,
                      int64_t max_epoch_ops = 0) {
  Database db;
  testing::LoadRunningExample(&db);
  const PlanPtr plan = shape == "agg" ? testing::RunningExampleAggPlan(db)
                                      : testing::RunningExampleSpjPlan(db);
  Maintainer m(&db, CompileView("v", plan, db));
  const auto net = MakeNetChanges(&db);

  FaultPlan fplan;
  if (fire_at_site.has_value()) fplan.fire_at_site = *fire_at_site;
  FaultInjector injector(fplan);

  MaintainOptions options;
  options.threads = threads;
  options.fault = &injector;
  options.max_epoch_ops = max_epoch_ops;

  EpochOutcome out;
  out.before = JoinSnapshots(SnapshotAll(&db)) + db.stats().ToString();
  const auto counters_before = CounterSnapshot();
  MaintainResult result;
  const Status status = m.TryMaintain(net, options, &result);
  out.code = status.code();
  out.status = status.ToString();
  out.tables = JoinSnapshots(SnapshotAll(&db));
  out.stats = db.stats().ToString();
  if (status.ok()) out.result = result.ToString();
  out.sites_visited = injector.sites_visited();
  out.faults_fired = injector.faults_fired();
  out.counters = CounterDelta(counters_before, CounterSnapshot());

  const std::string context = shape + " threads=" + std::to_string(threads);
  if (!status.ok()) {
    MaintainOptions clean;
    clean.threads = threads;
    MaintainResult retry;
    const Status retry_status = m.TryMaintain(net, clean, &retry);
    EXPECT_TRUE(retry_status.ok()) << context << ": "
                                   << retry_status.ToString();
    out.retried = JoinSnapshots(SnapshotAll(&db)) + db.stats().ToString() +
                  retry.ToString();
  }
  testing::ExpectViewMatchesRecompute(&db, plan, "v", context);
  return out;
}

// What a clean epoch leaves behind, in the form `retried` records.
std::string CommittedState(const EpochOutcome& clean) {
  return clean.tables + clean.stats + clean.result;
}

void ExpectOutcomesEqual(const EpochOutcome& reference,
                         const EpochOutcome& other,
                         const std::string& context) {
  EXPECT_EQ(other.status, reference.status) << context;
  EXPECT_EQ(other.tables, reference.tables) << context;
  EXPECT_EQ(other.stats, reference.stats) << context;
  EXPECT_EQ(other.result, reference.result) << context;
  EXPECT_EQ(other.sites_visited, reference.sites_visited) << context;
  EXPECT_EQ(other.faults_fired, reference.faults_fired) << context;
  EXPECT_EQ(other.counters, reference.counters) << context;
  EXPECT_EQ(other.retried, reference.retried) << context;
}

// A failed epoch left every table and the stats exactly as they were, and
// retrying it reaches exactly the state a clean epoch commits.
void ExpectRolledBackThenConverged(const EpochOutcome& failed,
                                   const EpochOutcome& clean,
                                   const std::string& context) {
  EXPECT_NE(failed.code, StatusCode::kOk) << context;
  EXPECT_EQ(failed.tables + failed.stats, failed.before) << context;
  EXPECT_EQ(failed.retried, CommittedState(clean)) << context;
}

class ExecParityShapeTest : public ::testing::TestWithParam<const char*> {};

// Clean epochs at 1/2/4/8 script threads: every thread count matches the
// sequential run bit for bit, counter deltas and fault surface included.
TEST_P(ExecParityShapeTest, CleanEpochMatchesAtEveryThreadCount) {
  const std::string shape = GetParam();
  const EpochOutcome reference = RunEpoch(shape, /*threads=*/1);
  ASSERT_EQ(reference.status, OkStatus().ToString());
  ASSERT_GT(reference.sites_visited, 0u) << shape;
  for (const int threads : {1, 2, 4, 8}) {
    ExpectOutcomesEqual(reference, RunEpoch(shape, threads),
                        shape + " threads=" + std::to_string(threads));
  }
}

// An injected fault at *every* site fires exactly once, fails the same
// way every time it is injected, rolls back to the pre-epoch bytes and
// stats, and its retry commits exactly what the clean epoch commits.
TEST_P(ExecParityShapeTest, EveryFaultSiteDivergesNowhere) {
  const std::string shape = GetParam();
  const EpochOutcome clean = RunEpoch(shape, /*threads=*/1);
  ASSERT_EQ(clean.status, OkStatus().ToString());
  ASSERT_GT(clean.sites_visited, 0u) << shape;

  for (uint64_t site = 0; site < clean.sites_visited; ++site) {
    const std::string context = shape + " site " + std::to_string(site);
    const EpochOutcome faulted = RunEpoch(shape, /*threads=*/1, site);
    EXPECT_EQ(faulted.code, StatusCode::kInjectedFault) << context;
    EXPECT_EQ(faulted.faults_fired, 1) << context;
    ExpectRolledBackThenConverged(faulted, clean, context);
    ExpectOutcomesEqual(faulted, RunEpoch(shape, /*threads=*/1, site),
                        context + " (again)");
  }
}

// Batched undo capture: the per-APPLY flush boundary ("apply-flush:<t>")
// is a real fault site. A fault fired there lands *after* the APPLY's
// whole before-image batch reached the epoch undo, so the faulted run must
// still show the contract-v5 batch counters, roll back from those batched
// entries to the pre-epoch bytes, and retry into the clean epoch's state.
TEST_P(ExecParityShapeTest, ApplyFlushFaultRollsBackBatchedUndo) {
  const std::string shape = GetParam();
  const EpochOutcome clean = RunEpoch(shape, /*threads=*/1);
  ASSERT_EQ(clean.status, OkStatus().ToString());
  // A clean epoch records whole-APPLY undo batches.
  ASSERT_GT(clean.counters.count("idivm_undo_batches_total"), 0u) << shape;
  ASSERT_GT(clean.counters.at("idivm_undo_batches_total"), 0) << shape;

  int flush_sites = 0;
  int flush_sites_with_batches = 0;
  for (uint64_t site = 0; site < clean.sites_visited; ++site) {
    const EpochOutcome faulted = RunEpoch(shape, /*threads=*/1, site);
    if (faulted.status.find("apply-flush:") == std::string::npos) continue;
    ++flush_sites;
    const std::string context = shape + " flush site " + std::to_string(site);
    ExpectRolledBackThenConverged(faulted, clean, context);
    // The batch flushed before the site fired: a faulted epoch whose
    // applies modified anything recorded batched before-images, then
    // rolled them back. (An APPLY of a no-op diff flushes an empty batch,
    // which is counterless by design — so assert over the whole sweep.)
    const auto batches = faulted.counters.find("idivm_undo_batches_total");
    if (batches != faulted.counters.end() && batches->second > 0) {
      ++flush_sites_with_batches;
    }
  }
  EXPECT_GT(flush_sites, 0) << shape;
  EXPECT_GT(flush_sites_with_batches, 0) << shape;
}

// The epoch op budget trips with the same message at every thread count,
// the rollback is identical, and the retry commits the clean epoch.
//
// A parallel abort does not fix the fault surface: when the budget trips in
// one instruction, instructions already running on other workers still
// finish their micro-ops and visit their fault sites, and instructions not
// yet started never do. So at threads > 1 the sites visited are only
// bounded by the clean epoch's surface; everything else must match the
// sequential run exactly, and at threads = 1 so must the surface.
TEST_P(ExecParityShapeTest, OpBudgetTripsIdentically) {
  const std::string shape = GetParam();
  const EpochOutcome clean = RunEpoch(shape, /*threads=*/1);
  ASSERT_EQ(clean.status, OkStatus().ToString());
  for (const int64_t budget : {1, 3}) {
    const EpochOutcome reference =
        RunEpoch(shape, /*threads=*/1, std::nullopt, budget);
    const std::string context = shape + " budget=" + std::to_string(budget);
    EXPECT_EQ(reference.code, StatusCode::kResourceExhausted) << context;
    ExpectRolledBackThenConverged(reference, clean, context);
    for (const int threads : {1, 2, 4, 8}) {
      const std::string at = context + " threads=" + std::to_string(threads);
      EpochOutcome run = RunEpoch(shape, threads, std::nullopt, budget);
      if (threads > 1) {
        EXPECT_GT(run.sites_visited, 0u) << at;
        EXPECT_LE(run.sites_visited, clean.sites_visited) << at;
        run.sites_visited = reference.sites_visited;  // checked above
      }
      ExpectOutcomesEqual(reference, run, at);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ExecParityShapeTest,
                         ::testing::Values("spj", "agg"));

BsmaConfig SmallConfig() {
  BsmaConfig config;
  config.users = 60;
  config.friends_per_user = 4;
  config.num_cities = 5;
  config.num_topics = 8;
  return config;
}

// ---- The script_io fuzz corpus view, loaded then executed ---------------

// A program compiled from a *loaded* repository view (the fuzz corpus
// serialization round trip) behaves exactly like the one compiled from
// the in-memory script: loading must not produce a script that compiles
// differently from the one it serialized. qs1 carries a merged APPLY, so
// the `(also …)` block is on the round trip.
TEST(ExecParityTest, LoadedCorpusViewMatches) {
  auto run = [](bool round_trip) {
    Database db;
    BsmaWorkload workload(&db, SmallConfig());
    CompiledView view = CompileView("v", workload.ViewPlan("qs1"), db);
    if (round_trip) {
      const LoadResult loaded =
          LoadCompiledView(SerializeCompiledView(view), db);
      EXPECT_TRUE(loaded.ok) << loaded.error;
      view = loaded.view;
    }
    Maintainer m(&db, view);
    ModificationLogger logger(&db);
    workload.ApplyUserUpdates(&logger, 40);
    MaintainResult result;
    const Status status =
        m.TryMaintain(logger.NetChanges(), MaintainOptions{}, &result);
    EXPECT_TRUE(status.ok()) << status.ToString();
    testing::ExpectViewMatchesRecompute(&db, m.view().plan, "v",
                                        round_trip ? "loaded" : "in-memory");
    return JoinSnapshots(SnapshotAll(&db)) + db.stats().ToString() +
           result.ToString();
  };
  EXPECT_EQ(run(/*round_trip=*/true), run(/*round_trip=*/false));
}

// ---- ViewManager: ladder, MVCC hand-off ---------------------------------

// Fault storms through the full degradation ladder: the same seed yields
// the same incidents (view, rung, recovered) and quarantine set every
// time, and once quarantined views are repaired every table is exactly
// what a fault-free refresh of the same changes leaves.
TEST(ExecParityTest, LadderStormsMatch) {
  auto run = [](bool storm, int seed) {
    Database db;
    testing::LoadRunningExample(&db);
    ViewManager vm(&db);
    vm.DefineView("v_spj", testing::RunningExampleSpjPlan(db));
    vm.DefineView("v_agg", testing::RunningExampleAggPlan(db));
    EXPECT_TRUE(vm.Update("parts", {Value("P1")}, {"price"},
                          {Value(10.0 + seed)}));
    EXPECT_TRUE(vm.Insert("parts", {Value("P7"), Value(70.0)}));
    EXPECT_TRUE(vm.Insert("devices_parts", {Value("D1"), Value("P7")}));

    FaultPlan plan;
    plan.rate = 0.3;
    plan.seed = static_cast<uint64_t>(seed);
    plan.max_fires = (seed % 4);
    FaultInjector injector(plan);
    RefreshOptions options;
    if (storm) options.fault = &injector;
    RefreshReport report;
    EXPECT_TRUE(vm.TryRefresh(options, &report).ok());

    std::string incidents;
    for (const ViewIncident& incident : report.incidents) {
      incidents += incident.view + " rung " + std::to_string(incident.rung) +
                   (incident.recovered ? " recovered" : " lost") + "\n";
    }
    for (const std::string& name : vm.QuarantinedViews()) {
      incidents += "quarantined " + name + "\n";
      vm.RepairView(name);
    }
    for (const std::string name : {"v_spj", "v_agg"}) {
      testing::ExpectViewMatchesRecompute(
          &db, vm.GetView(name).view().plan, name,
          "storm seed " + std::to_string(seed));
    }
    return std::make_pair(incidents, JoinSnapshots(SnapshotAll(&db)));
  };
  int stormy_seeds = 0;
  for (int seed = 0; seed < 12; ++seed) {
    const auto storm = run(/*storm=*/true, seed);
    if (!storm.first.empty()) ++stormy_seeds;
    EXPECT_EQ(run(/*storm=*/true, seed), storm) << "seed " << seed;
    const auto calm = run(/*storm=*/false, seed);
    EXPECT_EQ(calm.first, "") << "seed " << seed;
    EXPECT_EQ(storm.second, calm.second) << "seed " << seed;
  }
  EXPECT_GT(stormy_seeds, 0);
}

// Refreshes in snapshot-read mode hand the epoch's redo delta to MVCC:
// the published snapshot equals the live tables after the flip, and both
// equal what the same refresh leaves in plain mode.
TEST(ExecParityTest, MvccRedoHandOffMatches) {
  auto run = [](bool snapshot_reads) {
    Database db;
    testing::LoadRunningExample(&db);
    ViewManager vm(&db);
    if (snapshot_reads) vm.EnableSnapshotReads();
    vm.DefineView("v_spj", testing::RunningExampleSpjPlan(db));
    vm.DefineView("v_agg", testing::RunningExampleAggPlan(db));
    EXPECT_TRUE(vm.Update("parts", {Value("P1")}, {"price"},
                          {Value(11.0)}));
    EXPECT_TRUE(vm.Insert("parts", {Value("P5"), Value(50.0)}));
    EXPECT_TRUE(vm.Insert("devices_parts", {Value("D1"), Value("P5")}));
    RefreshReport report;
    EXPECT_TRUE(vm.TryRefresh(RefreshOptions{}, &report).ok());
    std::string out;
    for (const std::string name : {"v_spj", "v_agg"}) {
      const Relation live = db.GetTable(name).SnapshotUncounted();
      if (snapshot_reads) {
        const Relation versioned = vm.OpenSnapshot().Read(name).Scan();
        EXPECT_TRUE(versioned.BagEquals(live)) << name;
        out += versioned.Sorted().ToString();
      } else {
        out += live.Sorted().ToString();
      }
    }
    return out + JoinSnapshots(SnapshotAll(&db));
  };
  EXPECT_EQ(run(/*snapshot_reads=*/true), run(/*snapshot_reads=*/false));
}

}  // namespace
}  // namespace idivm
