// Relation schemas: ordered lists of uniquely-named, typed columns.
//
// A Schema is immutable once built (Extend returns a new one), so its
// column list is shared: copying a Schema — and with it a Relation, a
// register, an operator output or a DiffSchema — copies one pointer and
// allocates nothing.

#ifndef IDIVM_TYPES_SCHEMA_H_
#define IDIVM_TYPES_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/types/value.h"

namespace idivm {

struct ColumnDef {
  std::string name;
  DataType type = DataType::kNull;

  friend bool operator==(const ColumnDef& a, const ColumnDef& b) {
    return a.name == b.name && a.type == b.type;
  }
};

// An ordered list of columns with unique names.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns);

  size_t num_columns() const { return columns().size(); }
  const ColumnDef& column(size_t i) const { return columns()[i]; }
  const std::vector<ColumnDef>& columns() const {
    return columns_ != nullptr ? *columns_ : kNoColumns;
  }

  // Index of the named column, or nullopt.
  std::optional<size_t> FindColumn(const std::string& name) const;
  // Index of the named column; checks it exists.
  size_t ColumnIndex(const std::string& name) const;
  bool HasColumn(const std::string& name) const {
    return FindColumn(name).has_value();
  }

  // Indices for a list of names (each must exist).
  std::vector<size_t> ColumnIndices(const std::vector<std::string>& names)
      const;

  // All column names in order.
  std::vector<std::string> ColumnNames() const;

  // All column names as a set (safe to build from a temporary Schema).
  std::set<std::string> ColumnNameSet() const;

  // Schema with `extra` appended. Checks for name collisions.
  Schema Extend(const std::vector<ColumnDef>& extra) const;

  std::string ToString() const;

  // Value equality: same column names and types in the same order.
  friend bool operator==(const Schema& a, const Schema& b) {
    return a.columns_ == b.columns_ || a.columns() == b.columns();
  }

 private:
  static const std::vector<ColumnDef> kNoColumns;

  // Never mutated after construction; null for the empty schema (default
  // constructed or moved from).
  std::shared_ptr<const std::vector<ColumnDef>> columns_;
};

}  // namespace idivm

#endif  // IDIVM_TYPES_SCHEMA_H_
