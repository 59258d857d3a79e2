// Tests for the Section 9 extension: insert i-diffs reading base-table
// attributes from the intermediate cache (CoalesceProbe), with the dynamic
// run-time fallback the paper describes.

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/workload/devices_parts.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

DevicesPartsConfig SmallConfig() {
  DevicesPartsConfig config;
  config.num_parts = 300;
  config.num_devices = 150;
  config.fanout = 5;
  return config;
}

CompilerOptions AssistOptions() {
  CompilerOptions options;
  options.view_assisted_inserts = true;
  return options;
}

TEST(ViewAssistTest, ScriptContainsCoalesceProbes) {
  Database db;
  DevicesPartsWorkload workload(&db, SmallConfig());
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db,
                                AssistOptions()));
  EXPECT_NE(m.view().script.ToString().find("COALESCE-PROBE[parts]"),
            std::string::npos);
}

TEST(ViewAssistTest, LinkInsertsAvoidBaseTable) {
  // Inserting devices_parts links to parts that ALREADY appear in the view:
  // their price is read from the cache, not from `parts` — zero base
  // accesses on parts (the Section 9 goal).
  Database db;
  DevicesPartsWorkload workload(&db, SmallConfig());
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db,
                                AssistOptions()));
  // pids already present in the cache (linked to some phone device).
  const std::string cache_name = m.view().cache_tables[0];
  std::set<int64_t> cached_pids;
  {
    const Relation cache = db.GetTable(cache_name).SnapshotUncounted();
    const size_t pid_col = cache.schema().ColumnIndex("pid");
    for (const Row& row : cache.rows()) {
      cached_pids.insert(row[pid_col].AsInt64());
    }
  }
  ASSERT_GE(cached_pids.size(), 10u);

  ModificationLogger logger(&db);
  int64_t added = 0;
  for (int64_t pid : cached_pids) {
    if (added >= 10) break;
    for (int64_t did = 0; did < 150; ++did) {
      if (db.GetTable("devices")
              .LookupByKeyUncounted({Value(did)})
              .value()[1]
              .AsString() != "phone") {
        continue;
      }
      if (db.GetTable("devices_parts")
              .LookupByKeyUncounted({Value(did), Value(pid)})
              .has_value()) {
        continue;
      }
      EXPECT_TRUE(logger.Insert("devices_parts", {Value(did), Value(pid)}));
      ++added;
      break;  // next pid
    }
  }
  ASSERT_GT(added, 0);
  db.stats().Reset();
  db.GetTable("parts").ResetLocalStats();
  m.Maintain(logger.NetChanges());
  // The headline of the extension: no parts accesses at all. (Checked
  // before the recompute comparison, whose full evaluation scans parts.)
  EXPECT_EQ(db.GetTable("parts").local_stats().TotalAccesses(), 0);
  testing::ExpectViewMatchesRecompute(&db, m.view().plan, "vp");

  // Control: without assistance the same round probes parts once per link.
  Database db2;
  DevicesPartsWorkload workload2(&db2, SmallConfig());
  Maintainer m2(&db2, CompileView("vp", workload2.AggViewPlan(), db2));
  ModificationLogger logger2(&db2);
  for (const auto& [table, mods] : logger.log()) {
    for (const Modification& mod : mods) {
      EXPECT_TRUE(logger2.Insert(table, mod.post));
    }
  }
  db2.stats().Reset();
  db2.GetTable("parts").ResetLocalStats();
  m2.Maintain(logger2.NetChanges());
  EXPECT_GT(db2.GetTable("parts").local_stats().TotalAccesses(), 0);
}

TEST(ViewAssistTest, MissFallsBackToBaseTable) {
  // A brand-new part has no cache rows: the probe must dynamically fall
  // back to `parts` (the run-time decision of Section 9).
  Database db;
  DevicesPartsWorkload workload(&db, SmallConfig());
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db,
                                AssistOptions()));
  ModificationLogger logger(&db);
  EXPECT_TRUE(logger.Insert("parts", {Value(int64_t{9999}), Value(55.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts",
                            {Value(int64_t{0}), Value(int64_t{9999})}));
  db.stats().Reset();
  db.GetTable("parts").ResetLocalStats();
  m.Maintain(logger.NetChanges());
  testing::ExpectViewMatchesRecompute(&db, m.view().plan, "vp");
}

TEST(ViewAssistTest, UpdatesDisableAssistForSafety) {
  // When parts itself is updated in the same round, the cache copy may be
  // mid-maintenance: the executor must take the fallback and stay correct.
  Database db;
  DevicesPartsWorkload workload(&db, SmallConfig());
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db,
                                AssistOptions()));
  ModificationLogger logger(&db);
  EXPECT_TRUE(
      logger.Update("parts", {Value(int64_t{5})}, {"price"}, {Value(77.0)}));
  // Link part 5 into a device in the same batch.
  for (int64_t did = 0; did < 150; ++did) {
    if (!db.GetTable("devices_parts")
             .LookupByKeyUncounted({Value(did), Value(int64_t{5})})
             .has_value()) {
      EXPECT_TRUE(
          logger.Insert("devices_parts", {Value(did), Value(int64_t{5})}));
      break;
    }
  }
  m.Maintain(logger.NetChanges());
  testing::ExpectViewMatchesRecompute(&db, m.view().plan, "vp");
}

TEST(ViewAssistTest, MixedRoundsStayCorrect) {
  Database db;
  DevicesPartsWorkload workload(&db, SmallConfig());
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db,
                                AssistOptions()));
  ModificationLogger logger(&db);
  for (int round = 0; round < 4; ++round) {
    workload.ApplyMixedChanges(&logger, 15, 10, 15);
    m.Maintain(logger.NetChanges());
    logger.Clear();
    testing::ExpectViewMatchesRecompute(&db, m.view().plan, "vp",
                                        "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace idivm
