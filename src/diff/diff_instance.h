// An i-diff instance: a DiffSchema plus rows under its materialized
// relation schema.

#ifndef IDIVM_DIFF_DIFF_INSTANCE_H_
#define IDIVM_DIFF_DIFF_INSTANCE_H_

#include <string>

#include "src/diff/diff_schema.h"
#include "src/types/relation.h"

namespace idivm {

// A DiffSchema with its rows, laid out as the schema's relation_schema().
class DiffInstance {
 public:
  explicit DiffInstance(DiffSchema schema)
      : schema_(std::move(schema)), data_(schema_.relation_schema()) {}
  // `data` must be laid out as `schema`'s relation: the same column names
  // in the same order (checked).
  DiffInstance(DiffSchema schema, Relation data);

  const DiffSchema& schema() const { return schema_; }
  const Relation& data() const { return data_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Appends a diff tuple (values ordered as relation_schema()).
  void Append(Row row) { data_.Append(std::move(row)); }

  // Keeps only the first diff tuple per Ī′ key (Ī′ must be a key of an
  // i-diff — Section 2 "Remark"). See the free function below.
  void DeduplicateByIds();

  std::string ToString() const;

 private:
  DiffSchema schema_;
  Relation data_;
};

// Keeps only the first tuple per Ī′ key of `data` (laid out as `schema`'s
// materialized relation, so Ī′ is its leading columns), preserving order.
// Works in place: a relation without duplicates is left untouched.
void DeduplicateByIds(const DiffSchema& schema, Relation* data);

}  // namespace idivm

#endif  // IDIVM_DIFF_DIFF_INSTANCE_H_
