// Unit tests for RowIndex, the flat hash index behind tables (stored and
// pre-state) and hash joins: a key's rows come back in insertion
// order (through regrowth and re-insertion), and keys that collide never
// match each other.

#include <vector>

#include "gtest/gtest.h"
#include "src/types/row_index.h"

namespace idivm {
namespace {

// Positions of `rows` whose column 0 equals `key`, through `index`.
std::vector<size_t> Matches(const RowIndex& index,
                            const std::vector<Row>& rows, const Value& key) {
  std::vector<size_t> out;
  index.ForEachMatch(rows, {key}, [&](size_t pos) { out.push_back(pos); });
  return out;
}

TEST(RowIndexTest, KeyOrderSurvivesRegrowth) {
  // Rows alternate over 7 keys; inserting 1 000 rows one by one from an
  // empty index doubles its buckets many times.
  std::vector<Row> rows;
  RowIndex index({0});
  for (int64_t i = 0; i < 1000; ++i) {
    rows.push_back({Value(i % 7), Value(i)});
    index.Insert(rows.back(), rows.size() - 1);
  }
  for (int64_t k = 0; k < 7; ++k) {
    std::vector<size_t> expected;
    for (size_t pos = 0; pos < rows.size(); ++pos) {
      if (rows[pos][0].AsInt64() == k) expected.push_back(pos);
    }
    EXPECT_EQ(Matches(index, rows, Value(k)), expected) << "key " << k;
  }
  EXPECT_TRUE(Matches(index, rows, Value(int64_t{7})).empty());
  // A one-pass build over the same rows gives the same chains.
  const RowIndex built({0}, rows);
  for (int64_t k = 0; k < 7; ++k) {
    EXPECT_EQ(Matches(built, rows, Value(k)), Matches(index, rows, Value(k)));
  }
}

TEST(RowIndexTest, EraseThenReinsertMovesRowToTheEnd) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6; ++i) rows.push_back({Value(i % 2), Value(i)});
  RowIndex index({0}, rows);
  ASSERT_EQ(Matches(index, rows, Value(int64_t{0})),
            (std::vector<size_t>{0, 2, 4}));
  // Unlink from the head, the middle and the tail of a chain.
  index.Erase(2);
  EXPECT_EQ(Matches(index, rows, Value(int64_t{0})),
            (std::vector<size_t>{0, 4}));
  index.Insert(rows[2], 2);
  EXPECT_EQ(Matches(index, rows, Value(int64_t{0})),
            (std::vector<size_t>{0, 4, 2}));
  index.Erase(0);
  index.Erase(2);
  EXPECT_EQ(Matches(index, rows, Value(int64_t{0})),
            (std::vector<size_t>{4}));
  // A position rewritten to another key joins that key's chain at the end.
  index.Erase(4);
  rows[4][0] = Value(int64_t{1});
  index.Insert(rows[4], 4);
  EXPECT_TRUE(Matches(index, rows, Value(int64_t{0})).empty());
  EXPECT_EQ(Matches(index, rows, Value(int64_t{1})),
            (std::vector<size_t>{1, 3, 5, 4}));
}

TEST(RowIndexTest, CollidingKeysNeverMatch) {
  // int64 1 and double 1.0 hash alike (Value::Hash is consistent across
  // numeric types) but are distinct keys under Value::Compare.
  const std::vector<Row> rows = {{Value(int64_t{1})}, {Value(1.0)},
                                 {Value(int64_t{1})}, {Value::Null()}};
  ASSERT_EQ(HashRowKey(rows[0], {0}), HashRowKey(rows[1], {0}));
  const RowIndex index({0}, rows);
  EXPECT_EQ(Matches(index, rows, Value(int64_t{1})),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(Matches(index, rows, Value(1.0)), (std::vector<size_t>{1}));
  EXPECT_EQ(Matches(index, rows, Value::Null()), (std::vector<size_t>{3}));
  // Many keys over few buckets share chains; each probe sees only its own.
  std::vector<Row> many;
  for (int64_t i = 0; i < 64; ++i) many.push_back({Value(i * 1024)});
  const RowIndex strided({0}, many);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(Matches(strided, many, Value(i * 1024)),
              (std::vector<size_t>{static_cast<size_t>(i)}));
  }
}

TEST(RowIndexTest, ProbeHashEqualsBuildHash) {
  const Row row = {Value("a"), Value(int64_t{7}), Value(2.5)};
  EXPECT_EQ(HashKey(ProjectRow(row, {2, 0})), HashRowKey(row, {2, 0}));
  EXPECT_EQ(HashKey({}), HashRowKey(row, {}));
}

}  // namespace
}  // namespace idivm
