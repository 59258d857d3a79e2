// Focused tests for the blocking aggregation rules (Tables 7, 9, 11, 12):
// the additive SUM/COUNT path, the AVG operator cache, MIN/MAX recompute,
// group creation/deletion, NULL handling, and non-root aggregates.

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

class AggMaintTest : public ::testing::Test {
 protected:
  AggMaintTest() {
    Table& t = db_.CreateTable("m", Schema({{"id", DataType::kInt64},
                                            {"grp", DataType::kString},
                                            {"x", DataType::kDouble}}),
                               {"id"});
    t.BulkLoadUncounted(Relation(
        t.schema(),
        {{Value(int64_t{1}), Value("a"), Value(10.0)},
         {Value(int64_t{2}), Value("a"), Value(20.0)},
         {Value(int64_t{3}), Value("b"), Value(30.0)},
         {Value(int64_t{4}), Value("b"), Value::Null()}}));
  }

  void Check(Maintainer& m, ModificationLogger& logger) {
    m.Maintain(logger.NetChanges());
    logger.Clear();
    testing::ExpectViewMatchesRecompute(&db_, m.view().plan,
                                        m.view().view_name);
  }

  Database db_;
};

TEST_F(AggMaintTest, SumCountAdditivePath) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kSum, Col("x"), "total"}, {AggFunc::kCount, nullptr, "n"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{1})}, {"x"}, {Value(15.0)}));
  Check(m, logger);
  const auto row = db_.GetTable("v").LookupByKeyUncounted({Value("a")});
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), 35.0);
  EXPECT_EQ((*row)[2].AsInt64(), 2);
}

TEST_F(AggMaintTest, NullToValueUpdateFixesSumAndCount) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kSum, Col("x"), "total"},
       {AggFunc::kCount, Col("x"), "nx"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{4})}, {"x"}, {Value(5.0)}));
  Check(m, logger);
  const auto row = db_.GetTable("v").LookupByKeyUncounted({Value("b")});
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), 35.0);
  EXPECT_EQ((*row)[2].AsInt64(), 2);  // non-null count grew
}

TEST_F(AggMaintTest, GroupMoveViaGroupAttributeUpdate) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kSum, Col("x"), "total"}, {AggFunc::kCount, nullptr, "n"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{1})}, {"grp"}, {Value("b")}));
  Check(m, logger);
  // Moving the last row out deletes the group entirely.
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{2})}, {"grp"}, {Value("c")}));
  Check(m, logger);
  EXPECT_FALSE(
      db_.GetTable("v").LookupByKeyUncounted({Value("a")}).has_value());
  EXPECT_TRUE(
      db_.GetTable("v").LookupByKeyUncounted({Value("c")}).has_value());
}

TEST_F(AggMaintTest, AvgUsesOperatorCache) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"}, {{AggFunc::kAvg, Col("x"), "mean"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  // An opcache table was created (Table 12's Cache_sum/Cache_count).
  bool has_opcache = false;
  for (const std::string& cache : m.view().cache_tables) {
    if (cache.find("__opcache_") != std::string::npos) has_opcache = true;
  }
  EXPECT_TRUE(has_opcache);
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{2})}, {"x"}, {Value(40.0)}));
  EXPECT_TRUE(logger.Insert("m", {Value(int64_t{5}), Value("a"), Value(10.0)}));
  Check(m, logger);
  const auto row = db_.GetTable("v").LookupByKeyUncounted({Value("a")});
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), 20.0);  // (10+40+10)/3
}

TEST_F(AggMaintTest, AvgOverAllNullGroupIsNull) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"}, {{AggFunc::kAvg, Col("x"), "mean"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{3})}, {"x"}, {Value::Null()}));
  Check(m, logger);
  const auto row = db_.GetTable("v").LookupByKeyUncounted({Value("b")});
  ASSERT_TRUE(row.has_value());
  EXPECT_TRUE((*row)[1].is_null());
}

TEST_F(AggMaintTest, MinMaxRecomputeMode) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kMin, Col("x"), "lo"}, {AggFunc::kMax, Col("x"), "hi"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  // Shrinking the max forces a true recompute (not delta-able).
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{2})}, {"x"}, {Value(1.0)}));
  Check(m, logger);
  const auto row = db_.GetTable("v").LookupByKeyUncounted({Value("a")});
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ((*row)[2].AsDouble(), 10.0);
}

TEST_F(AggMaintTest, DeleteLastRowDeletesGroup) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kSum, Col("x"), "total"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Delete("m", {Value(int64_t{3})}));
  EXPECT_TRUE(logger.Delete("m", {Value(int64_t{4})}));
  Check(m, logger);
  EXPECT_EQ(db_.GetTable("v").size(), 1u);
}

TEST_F(AggMaintTest, InsertCreatesGroup) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kSum, Col("x"), "total"}, {AggFunc::kCount, nullptr, "n"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Insert("m", {Value(int64_t{9}), Value("z"), Value(7.0)}));
  Check(m, logger);
  const auto row = db_.GetTable("v").LookupByKeyUncounted({Value("z")});
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), 7.0);
}

TEST_F(AggMaintTest, NonRootAggregateUsesAbsoluteUpdates) {
  // σ above γ: the aggregate's update diffs must carry absolute values
  // (via the SUM+COUNT opcache), not additive deltas.
  const PlanPtr agg = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kSum, Col("x"), "total"}});
  const PlanPtr plan =
      PlanNode::Select(agg, Gt(Col("total"), Lit(Value(25.0))));
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  // a: 45
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{1})}, {"x"}, {Value(25.0)}));
  Check(m, logger);
  // a: 21
  EXPECT_TRUE(logger.Update("m", {Value(int64_t{1})}, {"x"}, {Value(1.0)}));
  Check(m, logger);
  EXPECT_FALSE(
      db_.GetTable("v").LookupByKeyUncounted({Value("a")}).has_value());
}

TEST_F(AggMaintTest, CountStarVsCountArg) {
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kCount, nullptr, "rows"},
       {AggFunc::kCount, Col("x"), "vals"}});
  Maintainer m(&db_, CompileView("v", plan, db_));
  ModificationLogger logger(&db_);
  EXPECT_TRUE(
      logger.Insert("m", {Value(int64_t{10}), Value("b"), Value::Null()}));
  Check(m, logger);
  const auto row = db_.GetTable("v").LookupByKeyUncounted({Value("b")});
  EXPECT_EQ((*row)[1].AsInt64(), 3);  // rows
  EXPECT_EQ((*row)[2].AsInt64(), 1);  // non-null values
}

// The running example's γ step aggregates a plain column, which the fold
// reads in place: the hit counter rises and the miss counter does not. A γ
// over SUM(x + x) evaluates its argument, which counts one miss and no
// hit; both views stay equal to recomputation.
TEST_F(AggMaintTest, RunningExampleAggEngagesKernel) {
  testing::LoadRunningExample(&db_);
  Maintainer m(&db_, CompileView("vp", testing::RunningExampleAggPlan(db_),
                                 db_));
  ModificationLogger logger(&db_);
  ASSERT_TRUE(logger.Update("parts", {Value("P1")}, {"price"},
                            {Value(11.0)}));
  ASSERT_TRUE(logger.Insert("parts", {Value("P5"), Value(50.0)}));
  ASSERT_TRUE(logger.Insert("devices_parts", {Value("D1"), Value("P5")}));
  ASSERT_TRUE(logger.Delete("devices_parts", {Value("D2"), Value("P1")}));
  ASSERT_TRUE(logger.Update("devices", {Value("D3")}, {"category"},
                            {Value("phone")}));
  const auto counter = [](const char* name) {
    return obs::MetricsRegistry::Global().CounterValue(name);
  };
  const int64_t hits0 = counter("idivm_agg_kernel_hits_total");
  const int64_t misses0 = counter("idivm_agg_kernel_misses_total");
  Check(m, logger);
  EXPECT_GT(counter("idivm_agg_kernel_hits_total"), hits0);
  EXPECT_EQ(counter("idivm_agg_kernel_misses_total"), misses0);

  const PlanPtr doubled_plan = PlanNode::Aggregate(
      PlanNode::Scan("m"), {"grp"},
      {{AggFunc::kSum, Add(Col("x"), Col("x")), "total"}});
  Maintainer doubled(&db_, CompileView("vx", doubled_plan, db_));
  // A value change (additive update) and a new group (recompute probe).
  ASSERT_TRUE(logger.Update("m", {Value(int64_t{1})}, {"x"}, {Value(15.0)}));
  ASSERT_TRUE(logger.Insert("m", {Value(int64_t{5}), Value("c"), Value(7.0)}));
  const int64_t hits1 = counter("idivm_agg_kernel_hits_total");
  const int64_t misses1 = counter("idivm_agg_kernel_misses_total");
  Check(doubled, logger);
  EXPECT_EQ(counter("idivm_agg_kernel_hits_total"), hits1);
  EXPECT_EQ(counter("idivm_agg_kernel_misses_total"), misses1 + 1);
  const auto row = db_.GetTable("vx").LookupByKeyUncounted({Value("a")});
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), 70.0);  // 2 * (15 + 20)
}

}  // namespace
}  // namespace idivm
