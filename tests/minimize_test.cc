// Unit tests for Pass 4 — semantic minimization (Fig. 8 rewrites and the
// composition-generalized diff push-down), checking both that rewrites fire
// and that they preserve semantics.

#include "gtest/gtest.h"
#include "src/algebra/evaluator.h"
#include "src/algebra/plan_printer.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/minimize.h"
#include "src/core/modification_log.h"
#include "src/core/rules.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

class MinimizeTest : public ::testing::Test {
 protected:
  MinimizeTest() {
    table_ = &db_.CreateTable("r", Schema({{"id", DataType::kInt64},
                                           {"a", DataType::kDouble},
                                           {"b", DataType::kDouble}}),
                              {"id"});
    table_->BulkLoadUncounted(Relation(
        table_->schema(),
        {{Value(int64_t{1}), Value(1.0), Value(10.0)},
         {Value(int64_t{2}), Value(2.0), Value(20.0)},
         {Value(int64_t{3}), Value(3.0), Value(30.0)}}));
    update_schema_ = std::make_unique<DiffSchema>(
        DiffType::kUpdate, "r", table_->schema(),
        std::vector<std::string>{"id"}, std::vector<std::string>{"a", "b"},
        std::vector<std::string>{"a"});
    delete_schema_ = std::make_unique<DiffSchema>(
        DiffType::kDelete, "r", table_->schema(),
        std::vector<std::string>{"id"}, std::vector<std::string>{"a", "b"},
        std::vector<std::string>{});
    script_.diff_registry.emplace_back("du", *update_schema_);
    script_.diff_registry.emplace_back("dd", *delete_schema_);
  }

  Database db_;
  Table* table_;
  std::unique_ptr<DiffSchema> update_schema_;
  std::unique_ptr<DiffSchema> delete_schema_;
  DeltaScript script_;
};

TEST_F(MinimizeTest, SemiJoinWithOwnUpdateDiffEliminated) {
  // Scan(r) ⋉_id ∆u_r → plain post rows of the diff (zero accesses).
  const PlanPtr plan =
      SemiJoinInputWithDiff(PlanNode::Scan("r"), "du", *update_schema_);
  MinimizeStats stats;
  const PlanPtr minimized = MinimizePlan(plan, script_, db_, &stats);
  EXPECT_EQ(stats.rewrites_applied, 1);
  EXPECT_TRUE(IsTransientOnly(minimized));

  // Semantics preserved: evaluate both against a diff instance.
  Relation diff(update_schema_->relation_schema());
  diff.Append({Value(int64_t{2}), Value(2.0), Value(20.0), Value(9.0)});
  // Make the table's post state consistent with the diff (C3).
  table_->UpdateByKey({Value(int64_t{2})}, {1}, {Value(9.0)});
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["du"] = &diff;
  const Relation original = Evaluate(plan, ctx);
  const Relation rewritten = Evaluate(minimized, ctx);
  EXPECT_TRUE(original.BagEquals(rewritten))
      << original.ToString() << rewritten.ToString();
  // And the rewritten form touches no stored data.
  db_.stats().Reset();
  Evaluate(minimized, ctx);
  EXPECT_EQ(db_.stats().TotalAccesses(), 0);
}

TEST_F(MinimizeTest, SemiJoinWithOwnDeleteDiffIsEmpty) {
  // C2: Scan(r) ⋉_id ∆-_r → ∅.
  const PlanPtr plan =
      SemiJoinInputWithDiff(PlanNode::Scan("r"), "dd", *delete_schema_);
  MinimizeStats stats;
  const PlanPtr minimized = MinimizePlan(plan, script_, db_, &stats);
  EXPECT_EQ(stats.rewrites_applied, 1);
  EvalContext ctx;
  ctx.db = &db_;
  Relation diff(delete_schema_->relation_schema());
  ctx.transient["dd"] = &diff;
  EXPECT_TRUE(Evaluate(minimized, ctx).empty());
}

TEST_F(MinimizeTest, JoinWithOwnDiffEliminated) {
  const PlanPtr plan =
      JoinInputWithDiff(PlanNode::Scan("r"), "du", *update_schema_);
  MinimizeStats stats;
  const PlanPtr minimized = MinimizePlan(plan, script_, db_, &stats);
  EXPECT_EQ(stats.rewrites_applied, 1);
  EXPECT_TRUE(IsTransientOnly(minimized));
  EXPECT_EQ(InferSchema(minimized, db_).ColumnNames(),
            InferSchema(plan, db_).ColumnNames());
}

TEST_F(MinimizeTest, SelectionOnScanFoldedIntoDiff) {
  // σ_b>15(Scan r) ⋉ ∆u → σ over the diff's reconstructed rows.
  const PlanPtr filtered = PlanNode::Select(
      PlanNode::Scan("r"), Gt(Col("b"), Lit(Value(15.0))));
  const PlanPtr plan = SemiJoinInputWithDiff(filtered, "du",
                                             *update_schema_);
  MinimizeStats stats;
  const PlanPtr minimized = MinimizePlan(plan, script_, db_, &stats);
  EXPECT_EQ(stats.rewrites_applied, 1);
  EXPECT_TRUE(IsTransientOnly(minimized));

  Relation diff(update_schema_->relation_schema());
  diff.Append({Value(int64_t{1}), Value(1.0), Value(10.0), Value(5.0)});
  diff.Append({Value(int64_t{3}), Value(3.0), Value(30.0), Value(7.0)});
  table_->UpdateByKey({Value(int64_t{1})}, {1}, {Value(5.0)});
  table_->UpdateByKey({Value(int64_t{3})}, {1}, {Value(7.0)});
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["du"] = &diff;
  const Relation out = Evaluate(minimized, ctx);
  ASSERT_EQ(out.size(), 1u);  // only id=3 has b>15
  EXPECT_EQ(out.rows()[0][0].AsInt64(), 3);
}

TEST_F(MinimizeTest, DiffPushdownThroughJoin) {
  // (r ⋈ s) ⋈_id ∆u_r: the minimizer replaces Scan(r) with the diff's rows.
  db_.CreateTable("s", Schema({{"sid", DataType::kInt64},
                               {"w", DataType::kDouble}}),
                  {"sid"});
  const PlanPtr renamed = PlanNode::Project(
      PlanNode::Scan("r"),
      {{Col("id"), "id"}, {Col("a"), "a"}, {Col("b"), "b"}});
  const PlanPtr subview = PlanNode::Join(
      renamed, PlanNode::Scan("s"), Eq(Col("b"), Col("sid")));
  const PlanPtr plan = JoinInputWithDiff(subview, "du", *update_schema_);
  MinimizeStats stats;
  const PlanPtr minimized = MinimizePlan(plan, script_, db_, &stats);
  EXPECT_GE(stats.rewrites_applied, 1);
  // Scan(r) is gone; Scan(s) stays (the probe target).
  const std::string rendered = PlanToString(minimized);
  EXPECT_EQ(rendered.find("SCAN r,"), std::string::npos);
  EXPECT_NE(rendered.find("SCAN s"), std::string::npos);
}

TEST_F(MinimizeTest, UnrelatedJoinUntouched) {
  // A diff joined with a DIFFERENT table must not be rewritten.
  db_.CreateTable("other", Schema({{"id", DataType::kInt64},
                                   {"x", DataType::kDouble}}),
                  {"id"});
  const PlanPtr plan =
      JoinInputWithDiff(PlanNode::Scan("other"), "du", *update_schema_);
  MinimizeStats stats;
  MinimizePlan(plan, script_, db_, &stats);
  EXPECT_EQ(stats.rewrites_applied, 0);
}

TEST_F(MinimizeTest, MinimizedCompilationStaysCorrect) {
  // End-to-end: general branches + minimization == recomputation.
  Database db;
  testing::LoadRunningExample(&db);
  CompilerOptions options;
  options.rules.prefer_diff_only_branches = false;
  options.minimize = true;
  Maintainer m(&db, CompileView("v", testing::RunningExampleSpjPlan(db), db,
                                options));
  ModificationLogger logger(&db);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(13.0)}));
  EXPECT_TRUE(
      logger.Update("devices", {Value("D2")}, {"category"}, {Value("tablet")}));
  m.Maintain(logger.NetChanges());
  testing::ExpectViewMatchesRecompute(&db, m.view().plan, "v");
}

}  // namespace
}  // namespace idivm
