// Unit tests for i-diff schemas (Section 2) and instances.

#include "gtest/gtest.h"
#include "src/diff/diff_instance.h"
#include "src/diff/diff_schema.h"

namespace idivm {
namespace {

const Schema kTarget({{"pid", DataType::kString},
                      {"price", DataType::kDouble},
                      {"weight", DataType::kDouble}});

TEST(DiffSchemaTest, UpdateLayout) {
  const DiffSchema d(DiffType::kUpdate, "parts", kTarget, {"pid"},
                     {"price", "weight"}, {"price"});
  EXPECT_EQ(d.relation_schema().ColumnNames(),
            (std::vector<std::string>{"pid", "price__pre", "weight__pre",
                                      "price__post"}));
  EXPECT_TRUE(d.HasPre("weight"));
  EXPECT_TRUE(d.HasPost("price"));
  EXPECT_FALSE(d.HasPost("weight"));
  EXPECT_FALSE(d.additive());
}

TEST(DiffSchemaTest, InsertForbidsPre) {
  EXPECT_DEATH(DiffSchema(DiffType::kInsert, "parts", kTarget, {"pid"},
                          {"price"}, {"price", "weight"}),
               "no pre-state");
  const DiffSchema ok(DiffType::kInsert, "parts", kTarget, {"pid"}, {},
                      {"price", "weight"});
  EXPECT_EQ(ok.relation_schema().num_columns(), 3u);
}

TEST(DiffSchemaTest, DeleteForbidsPost) {
  EXPECT_DEATH(DiffSchema(DiffType::kDelete, "parts", kTarget, {"pid"}, {},
                          {"price"}),
               "no post-state");
}

TEST(DiffSchemaTest, AdditiveOnlyForUpdates) {
  EXPECT_DEATH(DiffSchema(DiffType::kInsert, "parts", kTarget, {"pid"}, {},
                          {"price"}, /*additive=*/true),
               "additive");
  const DiffSchema d(DiffType::kUpdate, "parts", kTarget, {"pid"}, {},
                     {"price"}, /*additive=*/true);
  EXPECT_TRUE(d.additive());
  EXPECT_NE(d.ToString().find("+="), std::string::npos);
}

TEST(DiffSchemaTest, StateSuffixHelpers) {
  EXPECT_EQ(PreName("price"), "price__pre");
  EXPECT_EQ(PostName("price"), "price__post");
  EXPECT_EQ(StripStateSuffix("price__pre"), "price");
  EXPECT_EQ(StripStateSuffix("price__post"), "price");
  EXPECT_EQ(StripStateSuffix("price"), "price");
}

TEST(DiffInstanceTest, AppendAndDeduplicate) {
  const DiffSchema d(DiffType::kUpdate, "parts", kTarget, {"pid"}, {},
                     {"price"});
  DiffInstance inst(d);
  inst.Append({Value("P1"), Value(11.0)});
  inst.Append({Value("P2"), Value(22.0)});
  inst.Append({Value("P1"), Value(11.0)});  // duplicate key
  EXPECT_EQ(inst.size(), 3u);
  inst.DeduplicateByIds();
  EXPECT_EQ(inst.size(), 2u);

  // A two-column Ī′ whose duplicates differ outside it: the first tuple
  // per key survives, and the survivors keep their original order.
  const Schema pairs({{"device", DataType::kString},
                      {"pid", DataType::kString},
                      {"qty", DataType::kInt64}});
  const DiffSchema two_ids(DiffType::kUpdate, "device_parts", pairs,
                           {"device", "pid"}, {}, {"qty"});
  DiffInstance multi(two_ids);
  multi.Append({Value("D1"), Value("P1"), Value(1)});
  multi.Append({Value("D1"), Value("P2"), Value(2)});
  multi.Append({Value("D1"), Value("P1"), Value(3)});  // dup
  multi.Append({Value("D2"), Value("P1"), Value(4)});
  multi.Append({Value("D1"), Value("P2"), Value(5)});  // dup
  multi.Append({Value("D2"), Value("P1"), Value(6)});  // dup
  multi.DeduplicateByIds();
  const std::vector<Row> first_per_key = {
      {Value("D1"), Value("P1"), Value(1)},
      {Value("D1"), Value("P2"), Value(2)},
      {Value("D2"), Value("P1"), Value(4)}};
  ASSERT_EQ(multi.size(), first_per_key.size());
  for (size_t i = 0; i < first_per_key.size(); ++i) {
    EXPECT_EQ(CompareRows(multi.data().rows()[i], first_per_key[i]), 0)
        << "row " << i;
  }

  // Without duplicates the relation is left exactly as it was.
  DiffInstance distinct(two_ids);
  distinct.Append({Value("D2"), Value("P9"), Value(7)});
  distinct.Append({Value("D1"), Value("P9"), Value(8)});
  distinct.Append({Value("D2"), Value("P8"), Value(9)});
  const std::vector<Row> before = distinct.data().rows();
  distinct.DeduplicateByIds();
  ASSERT_EQ(distinct.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(CompareRows(distinct.data().rows()[i], before[i]), 0)
        << "row " << i;
  }
}

TEST(DiffInstanceDeathTest, DataSchemaMustMatch) {
  const DiffSchema d(DiffType::kUpdate, "parts", kTarget, {"pid"}, {},
                     {"price"});
  Relation wrong(Schema({{"pid", DataType::kString},
                         {"price", DataType::kDouble}}));
  EXPECT_DEATH(DiffInstance(d, wrong), "does not match");
}

TEST(DiffSchemaTest, ToStringShape) {
  const DiffSchema d(DiffType::kUpdate, "parts", kTarget, {"pid"},
                     {"price"}, {"price"});
  const std::string s = d.ToString();
  EXPECT_NE(s.find("∆u_parts"), std::string::npos);
  EXPECT_NE(s.find("pre: price"), std::string::npos);
}

}  // namespace
}  // namespace idivm
