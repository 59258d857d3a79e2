#include "src/types/schema.h"

#include <unordered_set>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

const std::vector<ColumnDef> Schema::kNoColumns;

Schema::Schema(std::vector<ColumnDef> columns)
    : columns_(std::make_shared<const std::vector<ColumnDef>>(
          std::move(columns))) {
  std::unordered_set<std::string> seen;
  for (const ColumnDef& col : *columns_) {
    IDIVM_CHECK(seen.insert(col.name).second,
                StrCat("duplicate column name: ", col.name));
  }
}

std::optional<size_t> Schema::FindColumn(const std::string& name) const {
  const std::vector<ColumnDef>& cols = columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == name) return i;
  }
  return std::nullopt;
}

size_t Schema::ColumnIndex(const std::string& name) const {
  const std::optional<size_t> idx = FindColumn(name);
  IDIVM_CHECK(idx.has_value(),
              StrCat("no column '", name, "' in schema ", ToString()));
  return *idx;
}

std::vector<size_t> Schema::ColumnIndices(
    const std::vector<std::string>& names) const {
  std::vector<size_t> out;
  out.reserve(names.size());
  for (const std::string& name : names) out.push_back(ColumnIndex(name));
  return out;
}

std::vector<std::string> Schema::ColumnNames() const {
  std::vector<std::string> out;
  out.reserve(num_columns());
  for (const ColumnDef& col : columns()) out.push_back(col.name);
  return out;
}

std::set<std::string> Schema::ColumnNameSet() const {
  std::set<std::string> out;
  for (const ColumnDef& col : columns()) out.insert(col.name);
  return out;
}

Schema Schema::Extend(const std::vector<ColumnDef>& extra) const {
  std::vector<ColumnDef> cols = columns();
  cols.insert(cols.end(), extra.begin(), extra.end());
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(num_columns());
  for (const ColumnDef& col : columns()) {
    parts.push_back(StrCat(col.name, ":", DataTypeName(col.type)));
  }
  return StrCat("(", Join(parts, ", "), ")");
}

}  // namespace idivm
