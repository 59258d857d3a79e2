// Unit tests for APPLY ∆ᵗ (Section 2 DML semantics): ID-subset updates,
// NOT-IN guarded inserts, overestimated deletes, additive updates,
// RETURNING captures, and the paper's access-cost model.

#include "gtest/gtest.h"
#include "src/diff/apply.h"
#include "src/storage/database.h"

namespace idivm {
namespace {

class ApplyTest : public ::testing::Test {
 protected:
  ApplyTest()
      : view_(db_.CreateTable("v",
                              Schema({{"did", DataType::kString},
                                      {"pid", DataType::kString},
                                      {"price", DataType::kDouble}}),
                              {"did", "pid"})) {
    // The Fig. 2 initial view instance.
    view_.BulkLoadUncounted(Relation(
        view_.schema(),
        {{Value("D1"), Value("P1"), Value(10.0)},
         {Value("D2"), Value("P1"), Value(10.0)},
         {Value("D1"), Value("P2"), Value(20.0)}}));
    // The index the pid-keyed (ID-subset) diffs apply through; a ∆-script
    // program declares it when it is compiled.
    view_.EnsureIndex({1});
  }

  Database db_;
  Table& view_;
};

TEST_F(ApplyTest, UpdateByKeySubsetTouchesAllMatches) {
  // Example 2.2: ∆u_V(pid | price) updates both P1 tuples.
  DiffSchema schema(DiffType::kUpdate, "v", view_.schema(), {"pid"},
                    {"price"}, {"price"});
  DiffInstance diff(schema);
  diff.Append({Value("P1"), Value(10.0), Value(11.0)});
  db_.stats().Reset();
  const ApplyResult result = ApplyDiff(diff, view_);
  EXPECT_EQ(result.rows_touched, 2);
  EXPECT_EQ(result.dummy_tuples, 0);
  // |∆| lookups + p tuple accesses.
  EXPECT_EQ(db_.stats().index_lookups, 1);
  EXPECT_EQ(db_.stats().tuple_writes, 2);
  EXPECT_DOUBLE_EQ((*view_.LookupByKey({Value("D2"), Value("P1")}))[2]
                       .AsDouble(),
                   11.0);
}

TEST_F(ApplyTest, DummyUpdateIsCountedNotFatal) {
  // Overestimation (Section 1's P3): updating a non-existent key is a no-op.
  DiffSchema schema(DiffType::kUpdate, "v", view_.schema(), {"pid"}, {},
                    {"price"});
  DiffInstance diff(schema);
  diff.Append({Value("P9"), Value(1.0)});
  const ApplyResult result = ApplyDiff(diff, view_);
  EXPECT_EQ(result.rows_touched, 0);
  EXPECT_EQ(result.dummy_tuples, 1);
}

TEST_F(ApplyTest, InsertWithNotInGuard) {
  DiffSchema schema(DiffType::kInsert, "v", view_.schema(), {"did", "pid"},
                    {}, {"price"});
  DiffInstance diff(schema);
  diff.Append({Value("D3"), Value("P2"), Value(20.0)});
  // Re-inserting an identical existing tuple is skipped (Example 2.3's
  // remark: multiple insert i-diffs may try to insert the same tuple).
  diff.Append({Value("D1"), Value("P1"), Value(10.0)});
  const ApplyResult result = ApplyDiff(diff, view_);
  EXPECT_EQ(result.rows_touched, 1);
  EXPECT_EQ(result.dummy_tuples, 1);
  EXPECT_EQ(view_.size(), 4u);
}

TEST_F(ApplyTest, NonEffectiveInsertAborts) {
  DiffSchema schema(DiffType::kInsert, "v", view_.schema(), {"did", "pid"},
                    {}, {"price"});
  DiffInstance diff(schema);
  diff.Append({Value("D1"), Value("P1"), Value(99.0)});  // key exists, diff
  EXPECT_DEATH(ApplyDiff(diff, view_), "non-effective");
}

TEST_F(ApplyTest, DeleteByKeySubset) {
  // Example 2.4: deleting by pid removes both P1 tuples.
  DiffSchema schema(DiffType::kDelete, "v", view_.schema(), {"pid"},
                    {"price"}, {});
  DiffInstance diff(schema);
  diff.Append({Value("P1"), Value(10.0)});
  diff.Append({Value("P7"), Value(0.0)});  // overestimated
  const ApplyResult result = ApplyDiff(diff, view_);
  EXPECT_EQ(result.rows_touched, 2);
  EXPECT_EQ(result.dummy_tuples, 1);
  EXPECT_EQ(view_.size(), 1u);
}

TEST_F(ApplyTest, AdditiveUpdateAddsDeltas) {
  DiffSchema schema(DiffType::kUpdate, "v", view_.schema(), {"pid"}, {},
                    {"price"}, /*additive=*/true);
  DiffInstance diff(schema);
  diff.Append({Value("P1"), Value(2.5)});
  ApplyDiff(diff, view_);
  EXPECT_DOUBLE_EQ((*view_.LookupByKey({Value("D1"), Value("P1")}))[2]
                       .AsDouble(),
                   12.5);
  EXPECT_DOUBLE_EQ((*view_.LookupByKey({Value("D2"), Value("P1")}))[2]
                       .AsDouble(),
                   12.5);
}

TEST_F(ApplyTest, AdditiveUpdateTreatsNullAsZero) {
  view_.UpdateByKey({Value("D1"), Value("P2")}, {2}, {Value::Null()});
  DiffSchema schema(DiffType::kUpdate, "v", view_.schema(), {"pid"}, {},
                    {"price"}, /*additive=*/true);
  DiffInstance diff(schema);
  diff.Append({Value("P2"), Value(5.0)});
  ApplyDiff(diff, view_);
  EXPECT_DOUBLE_EQ((*view_.LookupByKey({Value("D1"), Value("P2")}))[2]
                       .AsDouble(),
                   5.0);
}

TEST_F(ApplyTest, ReturningCapturesImages) {
  DiffSchema schema(DiffType::kUpdate, "v", view_.schema(), {"pid"}, {},
                    {"price"});
  DiffInstance diff(schema);
  diff.Append({Value("P1"), Value(11.0)});
  ReturningImages images(view_.schema());
  ApplyDiff(diff, view_, &images);
  ASSERT_EQ(images.pre_images.size(), 2u);
  ASSERT_EQ(images.post_images.size(), 2u);
  EXPECT_DOUBLE_EQ(images.pre_images.rows()[0][2].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(images.post_images.rows()[0][2].AsDouble(), 11.0);

  // Deletes capture pre images only; inserts post images only.
  DiffSchema del(DiffType::kDelete, "v", view_.schema(), {"pid"}, {}, {});
  DiffInstance del_diff(del);
  del_diff.Append({Value("P2")});
  ReturningImages del_images(view_.schema());
  ApplyDiff(del_diff, view_, &del_images);
  EXPECT_EQ(del_images.pre_images.size(), 1u);
  EXPECT_EQ(del_images.post_images.size(), 0u);
}

}  // namespace
}  // namespace idivm
