// In-memory relations (bags of rows under a schema). Relations are the
// currency of the algebra evaluator and of diff instances; persistent,
// access-counted storage lives in src/storage.

#ifndef IDIVM_TYPES_RELATION_H_
#define IDIVM_TYPES_RELATION_H_

#include <string>
#include <vector>

#include "src/types/schema.h"
#include "src/types/value.h"

namespace idivm {

using Row = std::vector<Value>;

// The one key hash, consistent with Value::Compare equality: an FNV-1a
// fold of value_at(0), ..., value_at(n - 1). Index builds hash a row's key
// columns (HashRowKey), probes the projected key (HashKey), alike.
template <typename ValueAt>
size_t HashValues(size_t n, const ValueAt& value_at) {
  size_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ value_at(i).Hash()) * 0x100000001b3ULL;
  }
  return h;
}
inline size_t HashRowKey(const Row& row, const std::vector<size_t>& cols) {
  return HashValues(cols.size(),
                    [&](size_t i) -> const Value& { return row[cols[i]]; });
}
inline size_t HashKey(const Row& key) {
  return HashValues(key.size(),
                    [&](size_t i) -> const Value& { return key[i]; });
}

// Projects `row` onto `cols`.
Row ProjectRow(const Row& row, const std::vector<size_t>& cols);

// Lexicographic comparison of full rows under Value::Compare.
int CompareRows(const Row& a, const Row& b);

// The strict weak order CompareRows defines, for ordered containers keyed
// on rows.
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) < 0;
  }
};

// A bag of rows under a schema.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Row> rows);

  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  // Appends a row; checks arity.
  void Append(Row row);

  // Rows sorted lexicographically (for stable output and comparison).
  Relation Sorted() const;

  // Multiset equality (schema column names/types and row bags must match).
  bool BagEquals(const Relation& other) const;

  // Pretty-printed table (for examples and debugging).
  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace idivm

#endif  // IDIVM_TYPES_RELATION_H_
