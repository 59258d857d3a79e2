// End-to-end idIVM tests: compile a view, modify the base tables, run the
// ∆-script, and check the maintained view equals recomputation — the golden
// invariant — for the paper's running example (Figs. 1, 2, 5, 7) and the
// basic modification mixes.

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

using ::idivm::testing::ExpectViewMatchesRecompute;
using ::idivm::testing::LoadRunningExample;
using ::idivm::testing::RunningExampleAggPlan;
using ::idivm::testing::RunningExampleSpjPlan;

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadRunningExample(&db_); }

  Maintainer CompileSpj() {
    return Maintainer(&db_, CompileView("v", RunningExampleSpjPlan(db_),
                                        db_));
  }
  Maintainer CompileAgg() {
    return Maintainer(&db_, CompileView("vp", RunningExampleAggPlan(db_),
                                        db_));
  }

  void MaintainAndCheck(Maintainer& maintainer, ModificationLogger& logger,
                        const PlanPtr& plan, const std::string& view) {
    maintainer.Maintain(logger.NetChanges());
    logger.Clear();
    ExpectViewMatchesRecompute(&db_, plan, view);
  }

  Database db_;
};

TEST_F(EndToEndTest, InitialMaterializationMatchesRecompute) {
  Maintainer m = CompileSpj();
  ExpectViewMatchesRecompute(&db_, m.view().plan, "v");
  EXPECT_EQ(db_.GetTable("v").size(), 3u);  // Fig. 2 initial V
}

TEST_F(EndToEndTest, PriceUpdatePropagates) {
  // The Example 1.1 change: P1's price 10 -> 11 updates two view tuples.
  Maintainer m = CompileSpj();
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  const MaintainResult result = m.Maintain(logger.NetChanges());
  ExpectViewMatchesRecompute(&db_, m.view().plan, "v");
  EXPECT_EQ(result.rows_touched, 2);  // both P1 tuples
}

TEST_F(EndToEndTest, OverestimatedUpdateIsDummy) {
  // P3 appears in no device: its update produces a dummy i-diff tuple
  // (Section 1's overestimation example) but a correct view.
  Maintainer m = CompileSpj();
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P3")}, {"price"}, {Value(25.0)}));
  const MaintainResult result = m.Maintain(logger.NetChanges());
  ExpectViewMatchesRecompute(&db_, m.view().plan, "v");
  EXPECT_EQ(result.rows_touched, 0);
  EXPECT_GE(result.dummy_tuples, 1);
}

TEST_F(EndToEndTest, InsertsPropagate) {
  Maintainer m = CompileSpj();
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(30.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D1"), Value("P4")}));
  // tablet: out
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D3"), Value("P4")}));
  MaintainAndCheck(m, logger, m.view().plan, "v");
  EXPECT_EQ(db_.GetTable("v").size(), 4u);
}

TEST_F(EndToEndTest, DeletesPropagate) {
  Maintainer m = CompileSpj();
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D2"), Value("P1")}));
  MaintainAndCheck(m, logger, m.view().plan, "v");
  EXPECT_EQ(db_.GetTable("v").size(), 2u);
}

TEST_F(EndToEndTest, SelectionFlipInsertsAndDeletes) {
  // Re-categorizing a device moves its tuples in and out of the view.
  Maintainer m = CompileSpj();
  ModificationLogger logger(&db_);
  EXPECT_TRUE(
      logger.Update("devices", {Value("D3")}, {"category"}, {Value("phone")}));
  EXPECT_TRUE(
      logger.Update("devices", {Value("D2")}, {"category"}, {Value("tablet")}));
  MaintainAndCheck(m, logger, m.view().plan, "v");
}

TEST_F(EndToEndTest, AggregateViewUpdate) {
  // Fig. 7's ∆-script: the price update flows through the cache into the
  // aggregate view.
  Maintainer m = CompileAgg();
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  MaintainAndCheck(m, logger, m.view().plan, "vp");
  // D1: P1(11) + P2(20) = 31; D2: P1(11) = 11.
  const Relation view = db_.GetTable("vp").SnapshotUncounted().Sorted();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.rows()[0][1].NumericAsDouble(), 31.0);
  EXPECT_EQ(view.rows()[1][1].NumericAsDouble(), 11.0);
}

TEST_F(EndToEndTest, AggregateGroupCreationAndDeletion) {
  Maintainer m = CompileAgg();
  ModificationLogger logger(&db_);
  // D3 becomes a phone: group D3 appears.
  EXPECT_TRUE(
      logger.Update("devices", {Value("D3")}, {"category"}, {Value("phone")}));
  MaintainAndCheck(m, logger, m.view().plan, "vp");
  EXPECT_EQ(db_.GetTable("vp").size(), 3u);
  // Delete all of D1's links: group D1 disappears.
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P1")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P2")}));
  MaintainAndCheck(m, logger, m.view().plan, "vp");
  EXPECT_EQ(db_.GetTable("vp").size(), 2u);
}

TEST_F(EndToEndTest, MixedBatchAcrossTables) {
  Maintainer m = CompileAgg();
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P2")}, {"price"}, {Value(22.0)}));
  EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(5.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D2"), Value("P4")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P1")}));
  EXPECT_TRUE(
      logger.Update("devices", {Value("D2")}, {"category"}, {Value("tablet")}));
  MaintainAndCheck(m, logger, m.view().plan, "vp");
}

TEST_F(EndToEndTest, MultipleRoundsStayConsistent) {
  Maintainer m = CompileAgg();
  ModificationLogger logger(&db_);
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"},
                  {Value(10.0 + round)}));
    EXPECT_TRUE(logger.Update("parts", {Value("P2")}, {"price"},
                  {Value(20.0 - round)}));
    MaintainAndCheck(m, logger, m.view().plan, "vp");
  }
}

TEST_F(EndToEndTest, CompactedNoOpProducesNoChanges) {
  Maintainer m = CompileSpj();
  ModificationLogger logger(&db_);
  // Update and revert within one batch: the net change is empty.
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(99.0)}));
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(10.0)}));
  const MaintainResult result = m.Maintain(logger.NetChanges());
  EXPECT_EQ(result.rows_touched, 0);
  ExpectViewMatchesRecompute(&db_, m.view().plan, "v");
}

TEST_F(EndToEndTest, DeltaScriptPrints) {
  Maintainer m = CompileAgg();
  const std::string script = m.view().script.ToString();
  EXPECT_NE(script.find("APPLY"), std::string::npos);
  EXPECT_NE(script.find("γ-MAINTAIN"), std::string::npos);
  const std::string dag = m.view().dag.ToString();
  EXPECT_NE(dag.find("blocking"), std::string::npos);
}

}  // namespace
}  // namespace idivm
