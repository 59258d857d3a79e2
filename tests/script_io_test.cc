// Tests for ∆-script repository persistence: expressions, plans and whole
// compiled views round-trip through the textual form, and a reloaded script
// maintains the view exactly like the original.

#include "gtest/gtest.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/script_io.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

TEST(ScriptIoTest, ExprRoundTripThroughPlan) {
  const ExprPtr expr =
      And(Gt(Add(Col("a"), Mul(Col("b"), Lit(Value(2.5)))),
             Lit(Value(int64_t{10}))),
          Or(Eq(Col("s"), Lit(Value("x\"y\\z"))),
             Expr::Function("isnull", {Lit(Value::Null())})));
  const std::string text = SerializeExpr(expr);
  // Round-trip via a plan wrapper (ReadExpr is exercised through plans).
  Database db;
  db.CreateTable("t", Schema({{"a", DataType::kDouble},
                              {"b", DataType::kDouble},
                              {"s", DataType::kString}}),
                 {"a"});
  const PlanPtr plan = PlanNode::Select(PlanNode::Scan("t"), expr);
  const std::string plan_text = SerializePlan(plan);
  EXPECT_NE(plan_text.find(text), std::string::npos);
}

TEST(ScriptIoTest, PlanSerializationShapes) {
  Database db;
  testing::LoadRunningExample(&db);
  const PlanPtr plan = testing::RunningExampleAggPlan(db);
  const std::string text = SerializePlan(plan);
  EXPECT_NE(text.find("(agg"), std::string::npos);
  EXPECT_NE(text.find("(scan \"parts\")"), std::string::npos);
  EXPECT_NE(text.find("(join"), std::string::npos);
}

class ScriptIoRoundTrip : public ::testing::Test {
 protected:
  ScriptIoRoundTrip() { testing::LoadRunningExample(&db_); }
  Database db_;
};

TEST_F(ScriptIoRoundTrip, SpjViewMaintainsIdentically) {
  CompiledView original =
      CompileView("v", testing::RunningExampleSpjPlan(db_), db_);
  const std::string text = SerializeCompiledView(original);

  const LoadResult loaded = LoadCompiledView(text, db_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.view.view_name, "v");
  EXPECT_EQ(loaded.view.view_ids, original.view_ids);
  EXPECT_EQ(loaded.view.script.steps.size(), original.script.steps.size());
  EXPECT_EQ(loaded.view.input_bindings.size(),
            original.input_bindings.size());

  // Maintain through the RELOADED script.
  Maintainer m(&db_, loaded.view);
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(9.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D2"), Value("P4")}));
  EXPECT_TRUE(
      logger.Update("devices", {Value("D3")}, {"category"}, {Value("phone")}));
  m.Maintain(logger.NetChanges());
  testing::ExpectViewMatchesRecompute(&db_, loaded.view.plan, "v");
}

TEST_F(ScriptIoRoundTrip, AggregateViewWithCacheAndNativeSteps) {
  CompiledView original =
      CompileView("vp", testing::RunningExampleAggPlan(db_), db_);
  const std::string text = SerializeCompiledView(original);
  const LoadResult loaded = LoadCompiledView(text, db_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.view.cache_tables, original.cache_tables);

  Maintainer m(&db_, loaded.view);
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(13.0)}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P2")}));
  m.Maintain(logger.NetChanges());
  testing::ExpectViewMatchesRecompute(&db_, loaded.view.plan, "vp");
}

TEST_F(ScriptIoRoundTrip, SecondSerializationIsStable) {
  CompiledView original =
      CompileView("vp", testing::RunningExampleAggPlan(db_), db_);
  const std::string once = SerializeCompiledView(original);
  const LoadResult loaded = LoadCompiledView(once, db_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(SerializeCompiledView(loaded.view), once);
}

TEST(ScriptIoBsmaTest, EveryCompiledViewIsASerializationFixedPoint) {
  // serialize → parse → serialize must be the identity on the textual form
  // for every BSMA view of Fig. 9b — the repository a snapshot embeds has to
  // survive arbitrarily many save/recover cycles byte-identically.
  Database db;
  BsmaConfig config;
  config.users = 20;
  config.friends_per_user = 3;
  BsmaWorkload workload(&db, config);
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    SCOPED_TRACE(view);
    CompiledView original = CompileView(view, workload.ViewPlan(view), db);
    const std::string once = SerializeCompiledView(original);
    const LoadResult loaded = LoadCompiledView(once, db);
    ASSERT_TRUE(loaded.ok) << view << ": " << loaded.error;
    const std::string twice = SerializeCompiledView(loaded.view);
    EXPECT_EQ(twice, once) << view;
  }
}

TEST_F(ScriptIoRoundTrip, ErrorsReported) {
  EXPECT_FALSE(LoadCompiledView("garbage", db_).ok);
  EXPECT_NE(LoadCompiledView("(compiled-view 99", db_).error.find("version"),
            std::string::npos);
  // Missing materialization: the view table does not exist.
  Database empty;
  testing::LoadRunningExample(&empty);
  CompiledView original =
      CompileView("v", testing::RunningExampleSpjPlan(db_), db_);
  const LoadResult loaded =
      LoadCompiledView(SerializeCompiledView(original), empty);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("materialize"), std::string::npos);
}

}  // namespace
}  // namespace idivm
