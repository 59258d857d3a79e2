// Unit tests for the storage layer: CRUD through indexes, secondary index
// consistency under updates, and exact access accounting (the substrate of
// the Section 6 cost model).

#include "gtest/gtest.h"
#include "src/storage/database.h"

namespace idivm {
namespace {

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : table_(db_.CreateTable("t",
                               Schema({{"id", DataType::kInt64},
                                       {"grp", DataType::kInt64},
                                       {"val", DataType::kDouble}}),
                               {"id"})) {}

  void Fill(int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(table_.Insert({Value(i), Value(i % 3), Value(i * 1.0)}));
    }
  }

  Database db_;
  Table& table_;
};

TEST_F(TableTest, InsertRejectsDuplicateKeys) {
  EXPECT_TRUE(table_.Insert({Value(int64_t{1}), Value(int64_t{0}),
                             Value(1.0)}));
  EXPECT_FALSE(table_.Insert({Value(int64_t{1}), Value(int64_t{9}),
                              Value(9.0)}));
  EXPECT_EQ(table_.size(), 1u);
}

TEST_F(TableTest, LookupByKey) {
  Fill(10);
  const auto row = table_.LookupByKey({Value(int64_t{7})});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].AsInt64(), 1);
  EXPECT_FALSE(table_.LookupByKey({Value(int64_t{99})}).has_value());
  // Uncounted variant charges nothing.
  db_.stats().Reset();
  table_.LookupByKeyUncounted({Value(int64_t{7})});
  EXPECT_EQ(db_.stats().TotalAccesses(), 0);
}

TEST_F(TableTest, SecondaryIndexLookup) {
  Fill(9);
  table_.EnsureIndex({1});
  db_.stats().Reset();
  const std::vector<Row> rows =
      table_.LookupWhereEquals({1}, {Value(int64_t{2})});
  EXPECT_EQ(rows.size(), 3u);  // ids 2, 5, 8
  // Cost model: 1 index lookup + 1 read per returned row.
  EXPECT_EQ(db_.stats().index_lookups, 1);
  EXPECT_EQ(db_.stats().tuple_reads, 3);
}

TEST_F(TableTest, DeleteByKeyAndWhereEquals) {
  Fill(9);
  EXPECT_TRUE(table_.DeleteByKey({Value(int64_t{4})}));
  EXPECT_FALSE(table_.DeleteByKey({Value(int64_t{4})}));
  EXPECT_EQ(table_.size(), 8u);
  table_.EnsureIndex({1});
  std::vector<Row> deleted;
  const size_t n = table_.DeleteWhereEquals({1}, {Value(int64_t{0})},
                                            &deleted);
  EXPECT_EQ(n, 3u);  // ids 0, 3, 6
  EXPECT_EQ(deleted.size(), 3u);
  EXPECT_EQ(table_.size(), 5u);
}

TEST_F(TableTest, SlotReuseAfterDelete) {
  Fill(5);
  table_.DeleteByKey({Value(int64_t{2})});
  EXPECT_TRUE(table_.Insert({Value(int64_t{100}), Value(int64_t{1}),
                             Value(5.0)}));
  EXPECT_EQ(table_.size(), 5u);
  EXPECT_TRUE(table_.LookupByKey({Value(int64_t{100})}).has_value());
  EXPECT_FALSE(table_.LookupByKey({Value(int64_t{2})}).has_value());
}

TEST_F(TableTest, UpdateMaintainsSecondaryIndexes) {
  Fill(9);
  table_.EnsureIndex({1});
  // Move id 0 from group 0 to group 2.
  EXPECT_TRUE(table_.UpdateByKey({Value(int64_t{0})}, {1},
                                 {Value(int64_t{2})}));
  EXPECT_EQ(table_.LookupWhereEquals({1}, {Value(int64_t{2})}).size(), 4u);
  EXPECT_EQ(table_.LookupWhereEquals({1}, {Value(int64_t{0})}).size(), 2u);
}

TEST_F(TableTest, UpdateWhereEqualsCosts) {
  Fill(9);
  table_.EnsureIndex({1});
  db_.stats().Reset();
  const std::vector<size_t> set_columns = {2};
  const size_t n = table_.UpdateRowsWhereEquals(
      {1}, {Value(int64_t{1})}, [](Row& row) { row[2] = Value(99.0); },
      nullptr, nullptr, &set_columns);
  EXPECT_EQ(n, 3u);
  // 1 lookup + 1 write per touched row (paper's UPDATE model).
  EXPECT_EQ(db_.stats().index_lookups, 1);
  EXPECT_EQ(db_.stats().tuple_writes, 3);
  EXPECT_EQ(db_.stats().tuple_reads, 0);
}

// Every index is built by EnsureIndex: a probe on a column set without
// one dies naming the table and the columns instead of building it.
TEST_F(TableTest, ProbeOnUnindexedColumnsDies) {
  Fill(3);
  EXPECT_EQ(table_.index_count(), 1u);
  EXPECT_DEATH(table_.LookupWhereEquals({1}, {Value(int64_t{0})}),
               "table t has no index on \\(grp\\)");
  EXPECT_DEATH(
      table_.DeleteWhereEquals({1, 2}, {Value(int64_t{0}), Value(0.0)}),
      "table t has no index on \\(grp, val\\)");
  EXPECT_DEATH(table_.UpdateRowsWhereEquals({2}, {Value(0.0)}, [](Row&) {}),
               "table t has no index on \\(val\\)");
  EXPECT_EQ(table_.index_count(), 1u);
  // The primary key needs no declaration; a declared index is built once
  // and covers rows inserted later.
  EXPECT_EQ(table_.LookupWhereEquals({0}, {Value(int64_t{1})}).size(), 1u);
  table_.EnsureIndex({1});
  table_.EnsureIndex({1});
  table_.EnsureIndex({0});
  EXPECT_EQ(table_.index_count(), 2u);
  ASSERT_TRUE(table_.Insert({Value(int64_t{9}), Value(int64_t{0}),
                             Value(9.0)}));
  EXPECT_EQ(table_.LookupWhereEquals({1}, {Value(int64_t{0})}).size(), 2u);
}

// A by-key update re-indexes only the indexes on columns it sets.
TEST_F(TableTest, UpdateByKeyKeepsUnsetIndexesInPlace) {
  Fill(6);
  table_.EnsureIndex({1});
  table_.EnsureIndex({2});
  // Set val of id 0 (grp 0): the grp chain keeps id 0 first.
  ASSERT_TRUE(table_.UpdateByKey({Value(int64_t{0})}, {2}, {Value(50.0)}));
  std::vector<Row> grp0 = table_.LookupWhereEquals({1}, {Value(int64_t{0})});
  ASSERT_EQ(grp0.size(), 2u);
  EXPECT_EQ(grp0[0][0].AsInt64(), 0);
  EXPECT_EQ(table_.LookupWhereEquals({2}, {Value(50.0)}).size(), 1u);
  EXPECT_TRUE(table_.LookupWhereEquals({2}, {Value(0.0)}).empty());
  // Charges: one lookup and one write, as for any by-key write.
  db_.stats().Reset();
  ASSERT_TRUE(table_.UpdateByKey({Value(int64_t{1})}, {2}, {Value(51.0)}));
  ASSERT_TRUE(table_.DeleteByKey({Value(int64_t{2})}));
  EXPECT_FALSE(table_.DeleteByKey({Value(int64_t{2})}));
  EXPECT_FALSE(table_.UpdateByKey({Value(int64_t{2})}, {2}, {Value(1.0)}));
  EXPECT_EQ(db_.stats().index_lookups, 4);
  EXPECT_EQ(db_.stats().tuple_writes, 2);
  EXPECT_EQ(db_.stats().tuple_reads, 0);
}

TEST_F(TableTest, UpdateRowsWhereEqualsReturning) {
  Fill(3);
  std::vector<Row> pre;
  std::vector<Row> post;
  table_.UpdateRowsWhereEquals(
      {0}, {Value(int64_t{1})},
      [](Row& row) { row[2] = Value(42.0); }, &pre, &post);
  ASSERT_EQ(pre.size(), 1u);
  ASSERT_EQ(post.size(), 1u);
  EXPECT_DOUBLE_EQ(pre[0][2].AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(post[0][2].AsDouble(), 42.0);
}

TEST_F(TableTest, ContainsRowChecksFullRow) {
  Fill(3);
  EXPECT_TRUE(table_.ContainsRow({Value(int64_t{1}), Value(int64_t{1}),
                                  Value(1.0)}));
  EXPECT_FALSE(table_.ContainsRow({Value(int64_t{1}), Value(int64_t{1}),
                                   Value(9.0)}));
}

TEST_F(TableTest, ScanCountsReads) {
  Fill(6);
  db_.stats().Reset();
  const Relation all = table_.ScanAll();
  EXPECT_EQ(all.size(), 6u);
  EXPECT_EQ(db_.stats().tuple_reads, 6);
  db_.stats().Reset();
  EXPECT_EQ(table_.SnapshotUncounted().size(), 6u);
  EXPECT_EQ(db_.stats().TotalAccesses(), 0);
}

TEST_F(TableTest, BulkLoadReplacesContents) {
  Fill(4);
  Relation fresh(table_.schema());
  fresh.Append({Value(int64_t{77}), Value(int64_t{0}), Value(7.0)});
  table_.BulkLoadUncounted(fresh);
  EXPECT_EQ(table_.size(), 1u);
  EXPECT_TRUE(table_.LookupByKey({Value(int64_t{77})}).has_value());
}

TEST_F(TableTest, CompositeKey) {
  Table& t2 = db_.CreateTable(
      "t2",
      Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64},
              {"v", DataType::kDouble}}),
      {"a", "b"});
  EXPECT_TRUE(t2.Insert({Value(int64_t{1}), Value(int64_t{1}), Value(0.0)}));
  EXPECT_TRUE(t2.Insert({Value(int64_t{1}), Value(int64_t{2}), Value(0.0)}));
  EXPECT_FALSE(t2.Insert({Value(int64_t{1}), Value(int64_t{1}), Value(9.0)}));
}

}  // namespace
}  // namespace idivm
