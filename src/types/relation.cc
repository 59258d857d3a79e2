#include "src/types/relation.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

Row ProjectRow(const Row& row, const std::vector<size_t>& cols) {
  Row out;
  out.reserve(cols.size());
  for (size_t c : cols) out.push_back(row[c]);
  return out;
}

int CompareRows(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

Relation::Relation(Schema schema, std::vector<Row> rows)
    : schema_(std::move(schema)), rows_(std::move(rows)) {
  for (const Row& row : rows_) {
    IDIVM_CHECK(row.size() == schema_.num_columns(),
                "row arity does not match schema");
  }
}

void Relation::Append(Row row) {
  IDIVM_CHECK(row.size() == schema_.num_columns(),
              StrCat("row arity ", row.size(), " != schema arity ",
                     schema_.num_columns()));
  rows_.push_back(std::move(row));
}

Relation Relation::Sorted() const {
  Relation out = *this;
  std::sort(out.rows_.begin(), out.rows_.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return out;
}

bool Relation::BagEquals(const Relation& other) const {
  if (schema_.ColumnNames() != other.schema_.ColumnNames()) return false;
  if (rows_.size() != other.rows_.size()) return false;
  const Relation a = Sorted();
  const Relation b = other.Sorted();
  for (size_t i = 0; i < a.rows_.size(); ++i) {
    if (CompareRows(a.rows_[i], b.rows_[i]) != 0) return false;
  }
  return true;
}

std::string Relation::ToString() const {
  std::vector<size_t> widths;
  widths.reserve(schema_.num_columns());
  for (const ColumnDef& col : schema_.columns()) {
    widths.push_back(col.name.size());
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  for (const Row& row : rows_) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      widths[i] = std::max(widths[i], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto append_line = [&](const std::vector<std::string>& line) {
    out += "|";
    for (size_t i = 0; i < line.size(); ++i) {
      out += " " + line[i] + std::string(widths[i] - line[i].size(), ' ') +
             " |";
    }
    out += "\n";
  };
  append_line(schema_.ColumnNames());
  out += "|";
  for (size_t w : widths) out += std::string(w + 2, '-') + "|";
  out += "\n";
  for (const auto& line : cells) append_line(line);
  return out;
}

}  // namespace idivm
