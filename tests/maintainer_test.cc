// Unit tests for the ∆-script executor: phase accounting, cache handling,
// pre-state reconstruction, and the compiled-view plumbing.

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

class MaintainerTest : public ::testing::Test {
 protected:
  MaintainerTest() { testing::LoadRunningExample(&db_); }
  Database db_;
};

TEST_F(MaintainerTest, CompiledViewExposesStructure) {
  const CompiledView view =
      CompileView("vp", testing::RunningExampleAggPlan(db_), db_);
  EXPECT_EQ(view.view_name, "vp");
  EXPECT_EQ(view.view_ids, (std::vector<std::string>{"did"}));
  EXPECT_EQ(view.view_schema.ColumnNames(),
            (std::vector<std::string>{"did", "cost"}));
  EXPECT_FALSE(view.input_bindings.empty());
  EXPECT_EQ(view.cache_tables.size(), 1u);  // intermediate cache below γ
  EXPECT_TRUE(db_.HasTable(view.cache_tables[0]));
  // Cache mirrors the SPJ subview.
  EXPECT_EQ(db_.GetTable(view.cache_tables[0]).size(), 3u);
}

TEST_F(MaintainerTest, PhaseAccounting) {
  Maintainer m(&db_, CompileView("vp", testing::RunningExampleAggPlan(db_),
                                 db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  db_.stats().Reset();
  const MaintainResult result = m.Maintain(logger.NetChanges());
  // Update on a non-conditional attribute: zero diff computation (the
  // Fig. 12 stacks), cache update = 1 lookup + 2 writes, view update = 2
  // groups × (lookup + write).
  EXPECT_EQ(result.diff_computation.accesses.TotalAccesses(), 0);
  EXPECT_EQ(result.cache_update.accesses.index_lookups, 1);
  EXPECT_EQ(result.cache_update.accesses.tuple_writes, 2);
  EXPECT_EQ(result.view_update.accesses.index_lookups, 2);
  EXPECT_EQ(result.view_update.accesses.tuple_writes, 2);
  // The sum matches the global counter.
  EXPECT_EQ(result.TotalAccesses().TotalAccesses(),
            db_.stats().TotalAccesses());
}

TEST_F(MaintainerTest, CacheStaysConsistent) {
  Maintainer m(&db_, CompileView("vp", testing::RunningExampleAggPlan(db_),
                                 db_));
  const std::string cache = m.view().cache_tables[0];
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Insert("parts", {Value("P5"), Value(50.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D1"), Value("P5")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D2"), Value("P1")}));
  m.Maintain(logger.NetChanges());
  // Cache == recomputed SPJ subview.
  EvalContext ctx;
  ctx.db = &db_;
  const Relation expected =
      Evaluate(testing::RunningExampleSpjPlan(db_), ctx);
  EXPECT_TRUE(
      db_.GetTable(cache).SnapshotUncounted().BagEquals(expected));
}

TEST_F(MaintainerTest, EmptyNetChangesCostNothing) {
  Maintainer m(&db_, CompileView("vp", testing::RunningExampleAggPlan(db_),
                                 db_));
  db_.stats().Reset();
  const MaintainResult result = m.Maintain({});
  EXPECT_EQ(result.TotalAccesses().TotalAccesses(), 0);
  EXPECT_EQ(result.rows_touched, 0);
}

TEST_F(MaintainerTest, MaintainTwiceWithoutClearIsIdempotentPerLog) {
  // Maintain consumes net changes; running the same net twice must not
  // corrupt the view because effective diffs converge (update to the same
  // values, inserts guarded, deletes dummies).
  Maintainer m(&db_, CompileView("v", testing::RunningExampleSpjPlan(db_),
                                 db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  const auto net = logger.NetChanges();
  m.Maintain(net);
  m.Maintain(net);
  testing::ExpectViewMatchesRecompute(&db_, m.view().plan, "v");
}

TEST_F(MaintainerTest, TwoViewsOverOneDatabase) {
  Maintainer spj(&db_, CompileView("v", testing::RunningExampleSpjPlan(db_),
                                   db_));
  Maintainer agg(&db_, CompileView("vp",
                                   testing::RunningExampleAggPlan(db_),
                                   db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P2")}, {"price"}, {Value(25.0)}));
  EXPECT_TRUE(
      logger.Update("devices", {Value("D1")}, {"category"}, {Value("tablet")}));
  const auto net = logger.NetChanges();
  spj.Maintain(net);
  agg.Maintain(net);
  testing::ExpectViewMatchesRecompute(&db_, spj.view().plan, "v");
  testing::ExpectViewMatchesRecompute(&db_, agg.view().plan, "vp");
}

// The maintainer builds every index its program probes when it is built,
// so an epoch builds none, whichever tables changed and how.
TEST_F(MaintainerTest, FirstEpochBuildsNoIndex) {
  Maintainer spj(&db_, CompileView("v", testing::RunningExampleSpjPlan(db_),
                                   db_));
  Maintainer agg(&db_, CompileView("vp",
                                   testing::RunningExampleAggPlan(db_),
                                   db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P2")}, {"price"}, {Value(25.0)}));
  EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(7.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D2"), Value("P4")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P1")}));
  EXPECT_TRUE(logger.Update("devices", {Value("D3")}, {"category"},
                            {Value("phone")}));
  const auto before = testing::IndexCounts(db_);
  const auto net = logger.NetChanges();
  spj.Maintain(net);
  agg.Maintain(net);
  EXPECT_EQ(testing::IndexCounts(db_), before);
  testing::ExpectViewMatchesRecompute(&db_, spj.view().plan, "v");
  testing::ExpectViewMatchesRecompute(&db_, agg.view().plan, "vp");
}

TEST_F(MaintainerTest, NoCacheOptionSkipsCacheTables) {
  CompilerOptions options;
  options.use_caches = false;
  const CompiledView view =
      CompileView("vp", testing::RunningExampleAggPlan(db_), db_, options);
  EXPECT_TRUE(view.cache_tables.empty());
}

TEST_F(MaintainerTest, ScriptPhasesLabelled) {
  const CompiledView view =
      CompileView("vp", testing::RunningExampleAggPlan(db_), db_);
  bool has_cache_phase = false;
  bool has_view_phase = false;
  for (const ScriptStep& step : view.script.steps) {
    if (step.apply.has_value()) {
      has_cache_phase |= step.apply->phase == MaintPhase::kCacheUpdate;
      has_view_phase |= step.apply->phase == MaintPhase::kViewUpdate;
    }
  }
  EXPECT_TRUE(has_cache_phase);
  EXPECT_TRUE(has_view_phase);
}

// Building a maintainer compiles its program — one cache miss — fusing
// each compute step into the APPLY that consumes its diff; the SPJ chain
// has such pairs, and the idivm_fused_steps_total counter says so. Each
// epoch only runs the program: one cache hit, no recompilation.
TEST_F(MaintainerTest, ConstructionCompilesAndFusesSteps) {
  const auto counter = [](const char* name) {
    return obs::MetricsRegistry::Global().CounterValue(name);
  };
  const int64_t fused0 = counter("idivm_fused_steps_total");
  const int64_t misses0 = counter("idivm_program_cache_misses_total");
  const int64_t hits0 = counter("idivm_program_cache_hits_total");
  Maintainer m(&db_, CompileView("v", testing::RunningExampleSpjPlan(db_),
                                 db_));
  ASSERT_TRUE(m.compile_status().ok()) << m.compile_status().ToString();
  const int64_t fused1 = counter("idivm_fused_steps_total");
  EXPECT_GT(fused1, fused0);
  EXPECT_EQ(counter("idivm_program_cache_misses_total"), misses0 + 1);
  EXPECT_EQ(counter("idivm_program_cache_hits_total"), hits0);
  ModificationLogger logger(&db_);
  ASSERT_TRUE(logger.Update("parts", {Value("P1")}, {"price"},
                            {Value(11.0)}));
  m.Maintain(logger.NetChanges());
  EXPECT_EQ(counter("idivm_fused_steps_total"), fused1);
  EXPECT_EQ(counter("idivm_program_cache_misses_total"), misses0 + 1);
  EXPECT_EQ(counter("idivm_program_cache_hits_total"), hits0 + 1);
  testing::ExpectViewMatchesRecompute(&db_, m.view().plan, "v");
}

// A damaged script, as a loaded repository can carry, is rejected when its
// maintainer is built: every epoch then fails with kCorruptScript instead of
// aborting the process, and leaves every table and the AccessStats as they
// were. Damage: a γ group key, a γ argument, a compute query selecting on a
// column its input lacks, an APPLY of an unregistered diff, a compute whose
// output columns are not its diff's, and an unknown scalar function.
TEST_F(MaintainerTest, CorruptAggregateColumnFailsEpoch) {
  const CompiledView view =
      CompileView("vp", testing::RunningExampleAggPlan(db_), db_);
  ModificationLogger logger(&db_);
  ASSERT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  ASSERT_TRUE(logger.Insert("devices_parts", {Value("D2"), Value("P2")}));
  const auto net = logger.NetChanges();
  const auto state = [this] {
    std::string out = db_.stats().ToString();
    for (const std::string& name : db_.TableNames()) {
      out += "== " + name + " ==\n" +
             db_.GetTable(name).SnapshotUncounted().Sorted().ToString();
    }
    return out;
  };
  const auto expect_corrupt = [&](CompiledView damaged, const char* what) {
    Maintainer m(&db_, std::move(damaged));
    EXPECT_EQ(m.compile_status().code(), StatusCode::kCorruptScript)
        << what << ": " << m.compile_status().ToString();
    const std::string before = state();
    MaintainResult result;
    const Status status = m.TryMaintain(net, {}, &result);
    EXPECT_EQ(status.code(), StatusCode::kCorruptScript)
        << what << ": " << status.ToString();
    EXPECT_EQ(state(), before) << what;
  };
  const auto first_step = [&](auto has) {
    size_t i = 0;
    while (i < view.script.steps.size() && !has(view.script.steps[i])) ++i;
    return i;
  };
  const size_t g = first_step(
      [](const ScriptStep& step) { return step.aggregate.has_value(); });
  const size_t c = first_step([](const ScriptStep& step) {
    return step.compute.has_value() && !step.compute->raw_relation;
  });
  const size_t a = first_step(
      [](const ScriptStep& step) { return step.apply.has_value(); });
  ASSERT_LT(g, view.script.steps.size());
  ASSERT_LT(c, view.script.steps.size());
  ASSERT_LT(a, view.script.steps.size());

  CompiledView bad_key = view;
  bad_key.script.steps[g].aggregate->group_by[0] = "no_such";
  expect_corrupt(std::move(bad_key), "γ group key");
  CompiledView bad_arg = view;
  bad_arg.script.steps[g].aggregate->aggs[0].arg = Col("no_such");
  expect_corrupt(std::move(bad_arg), "γ argument");

  const PlanPtr query = view.script.steps[c].compute->query;
  expect_corrupt(testing::SelectOnMissingColumn(view, "no_such"),
                 "compute column");
  CompiledView bad_apply = view;
  bad_apply.script.steps[a].apply->diff_name = "no_such_diff";
  expect_corrupt(std::move(bad_apply), "apply of an unregistered diff");
  std::vector<std::string> columns = InferSchema(query, db_).ColumnNames();
  columns.pop_back();
  CompiledView bad_output = view;
  bad_output.script.steps[c].compute->query = ProjectColumns(query, columns);
  expect_corrupt(std::move(bad_output), "compute output columns");
  CompiledView bad_function = view;
  bad_function.script.steps[c].compute->query = PlanNode::Select(
      query, Eq(Expr::Function("no_such_fn", {Col(columns[0])}),
                Lit(Value(int64_t{1}))));
  expect_corrupt(std::move(bad_function), "unknown function");
}

}  // namespace
}  // namespace idivm
