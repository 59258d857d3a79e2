// Tests for the Fig. 3 façade: multi-view management, eager vs deferred
// refresh, and view lifecycle.

#include "gtest/gtest.h"
#include "src/core/view_manager.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

class ViewManagerTest : public ::testing::Test {
 protected:
  ViewManagerTest() { testing::LoadRunningExample(&db_); }

  // Price of the (did, pid) row in view "v" (robust to the view's key
  // column order).
  double PriceOf(const std::string& did, const std::string& pid) {
    Table& v = db_.GetTable("v");
    const auto rows = v.LookupWhereEquals(
        v.schema().ColumnIndices({"did", "pid"}),
        {Value(did), Value(pid)});
    EXPECT_EQ(rows.size(), 1u);
    return rows.at(0)[v.schema().ColumnIndex("price")].AsDouble();
  }

  Database db_;
};

TEST_F(ViewManagerTest, DeferredRefreshMaintainsAllViews) {
  ViewManager manager(&db_);
  manager.DefineView("v", testing::RunningExampleSpjPlan(db_));
  manager.DefineView("vp", testing::RunningExampleAggPlan(db_));
  EXPECT_EQ(manager.ViewNames(), (std::vector<std::string>{"v", "vp"}));

  manager.Update("parts", {Value("P1")}, {"price"}, {Value(13.0)});
  manager.Insert("devices_parts", {Value("D2"), Value("P2")});
  // Views are stale until Refresh (deferred IVM).
  EXPECT_DOUBLE_EQ(PriceOf("D1", "P1"), 10.0);

  const auto results = manager.Refresh();
  EXPECT_EQ(results.size(), 2u);
  testing::ExpectViewMatchesRecompute(
      &db_, manager.GetView("v").view().plan, "v");
  testing::ExpectViewMatchesRecompute(
      &db_, manager.GetView("vp").view().plan, "vp");
  // Second refresh with no changes is free.
  EXPECT_TRUE(manager.Refresh().empty());
}

TEST_F(ViewManagerTest, EagerRefreshKeepsViewsFresh) {
  ViewManager manager(&db_, RefreshMode::kEager);
  manager.DefineView("v", testing::RunningExampleSpjPlan(db_));
  manager.Update("parts", {Value("P1")}, {"price"}, {Value(13.0)});
  // Fresh immediately, no explicit Refresh.
  EXPECT_DOUBLE_EQ(PriceOf("D1", "P1"), 13.0);
  manager.Delete("devices_parts", {Value("D2"), Value("P1")});
  testing::ExpectViewMatchesRecompute(
      &db_, manager.GetView("v").view().plan, "v");
}

TEST_F(ViewManagerTest, DropViewRemovesTablesAndCaches) {
  ViewManager manager(&db_);
  Maintainer& m = manager.DefineView("vp",
                                     testing::RunningExampleAggPlan(db_));
  const std::vector<std::string> caches = m.view().cache_tables;
  ASSERT_FALSE(caches.empty());
  manager.DropView("vp");
  EXPECT_FALSE(db_.HasTable("vp"));
  for (const std::string& cache : caches) {
    EXPECT_FALSE(db_.HasTable(cache));
  }
  EXPECT_FALSE(manager.HasView("vp"));
}

TEST_F(ViewManagerTest, DuplicateViewRejected) {
  ViewManager manager(&db_);
  manager.DefineView("v", testing::RunningExampleSpjPlan(db_));
  EXPECT_DEATH(manager.DefineView("v", testing::RunningExampleSpjPlan(db_)),
               "already defined");
}

TEST_F(ViewManagerTest, RepositoryPersistence) {
  // Compile two views, persist the repository, and continue maintenance in
  // a "new process" (a fresh ViewManager over the same database).
  std::string dump;
  {
    ViewManager manager(&db_);
    manager.DefineView("v", testing::RunningExampleSpjPlan(db_));
    manager.DefineView("vp", testing::RunningExampleAggPlan(db_));
    dump = manager.SerializeRepository();
  }
  ViewManager reloaded(&db_);
  const std::string error = reloaded.LoadRepository(dump);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(reloaded.ViewNames(), (std::vector<std::string>{"v", "vp"}));

  reloaded.Update("parts", {Value("P1")}, {"price"}, {Value(15.0)});
  reloaded.Refresh();
  testing::ExpectViewMatchesRecompute(
      &db_, reloaded.GetView("v").view().plan, "v");
  testing::ExpectViewMatchesRecompute(
      &db_, reloaded.GetView("vp").view().plan, "vp");
}

TEST_F(ViewManagerTest, RepositoryLoadErrors) {
  ViewManager manager(&db_);
  EXPECT_FALSE(manager.LoadRepository("nonsense").empty());
}

// A loaded script is compiled before its view is registered: one whose
// compute step names a column its input lacks is rejected at load time,
// naming the view and the column, and no maintainer is registered for it.
TEST_F(ViewManagerTest, RepositoryLoadRejectsUncompilableScript) {
  std::string dump;
  {
    ViewManager manager(&db_);
    manager.DefineView("v", testing::RunningExampleSpjPlan(db_));
    dump = testing::RepositoryOf(
        testing::SelectOnMissingColumn(manager.GetView("v").view(),
                                       "no_such_column"));
  }
  ViewManager reloaded(&db_);
  const std::string error = reloaded.LoadRepository(dump);
  EXPECT_NE(error.find("view v"), std::string::npos) << error;
  EXPECT_NE(error.find("no_such_column"), std::string::npos) << error;
  EXPECT_FALSE(reloaded.HasView("v"));
  EXPECT_TRUE(reloaded.ViewNames().empty());
}

TEST_F(ViewManagerTest, FailedModificationsAreNotLogged) {
  ViewManager manager(&db_);
  manager.DefineView("v", testing::RunningExampleSpjPlan(db_));
  EXPECT_FALSE(manager.Delete("parts", {Value("P99")}));
  EXPECT_FALSE(manager.Update("parts", {Value("P99")}, {"price"},
                              {Value(1.0)}));
  EXPECT_TRUE(manager.Refresh().empty());
}

// Each maintainer compiles its view's program when it is built and keeps
// it: DefineView, RepairView and LoadRepository each count one miss per
// maintainer they build, and every epoch counts one hit.
TEST_F(ViewManagerTest, EachMaintainerCompilesOnce) {
  const auto counter = [](const char* name) {
    return obs::MetricsRegistry::Global().CounterValue(name);
  };
  int64_t misses = counter("idivm_program_cache_misses_total");
  int64_t hits = counter("idivm_program_cache_hits_total");
  auto expect_counts = [&](int64_t new_misses, int64_t new_hits,
                           const char* context) {
    misses += new_misses;
    hits += new_hits;
    EXPECT_EQ(counter("idivm_program_cache_misses_total"), misses) << context;
    EXPECT_EQ(counter("idivm_program_cache_hits_total"), hits) << context;
  };
  int price = 12;
  auto touch_parts = [&](ViewManager& manager) {
    EXPECT_TRUE(manager.Update("parts", {Value("P1")}, {"price"},
                               {Value(static_cast<double>(price++))}));
  };

  ViewManager manager(&db_);
  manager.DefineView("v", testing::RunningExampleSpjPlan(db_));
  manager.DefineView("vp", testing::RunningExampleAggPlan(db_));
  expect_counts(2, 0, "defining a view compiles it");
  touch_parts(manager);
  manager.Refresh();
  expect_counts(0, 2, "a refresh compiles none");
  touch_parts(manager);
  manager.Refresh();
  expect_counts(0, 2, "nor does the next");

  manager.RepairView("v");
  expect_counts(1, 0, "repair rebuilds only v");
  touch_parts(manager);
  manager.Refresh();
  expect_counts(0, 2, "the repaired v runs its new program");

  const std::string dump = manager.SerializeRepository();
  ViewManager reloaded(&db_);
  ASSERT_EQ(reloaded.LoadRepository(dump), "");
  expect_counts(2, 0, "a loaded repository compiles its own maintainers");
  touch_parts(reloaded);
  reloaded.Refresh();
  expect_counts(0, 2, "and runs them");
  touch_parts(manager);
  manager.Refresh();
  expect_counts(0, 2, "the original manager keeps its programs");
  for (const std::string name : {"v", "vp"}) {
    testing::ExpectViewMatchesRecompute(
        &db_, manager.GetView(name).view().plan, name);
  }
}

}  // namespace
}  // namespace idivm
