#include "src/diff/diff_instance.h"

#include <numeric>
#include <unordered_set>
#include <vector>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

DiffInstance::DiffInstance(DiffSchema schema, Relation data)
    : schema_(std::move(schema)), data_(std::move(data)) {
  const std::vector<ColumnDef>& have = data_.schema().columns();
  const std::vector<ColumnDef>& want = schema_.relation_schema().columns();
  bool same = have.size() == want.size();
  for (size_t i = 0; same && i < have.size(); ++i) {
    same = have[i].name == want[i].name;
  }
  IDIVM_CHECK(same, StrCat("diff data schema ", data_.schema().ToString(),
                           " does not match ", schema_.ToString()));
}

void DiffInstance::DeduplicateByIds() {
  idivm::DeduplicateByIds(schema_, &data_);
}

std::string DiffInstance::ToString() const {
  return StrCat(schema_.ToString(), " [", data_.size(), " tuples]\n",
                data_.ToString());
}

void DeduplicateByIds(const DiffSchema& schema, Relation* data) {
  std::vector<Row>& rows = data->mutable_rows();
  if (rows.size() < 2) return;
  std::vector<size_t> id_cols(schema.id_columns().size());
  std::iota(id_cols.begin(), id_cols.end(), 0);
  // The set holds indices of kept rows; rows[kept] is compacted in place.
  const auto hash = [&](size_t i) { return HashRowKey(rows[i], id_cols); };
  const auto same_key = [&](size_t a, size_t b) {
    for (size_t c : id_cols) {
      if (rows[a][c].Compare(rows[b][c]) != 0) return false;
    }
    return true;
  };
  std::unordered_set<size_t, decltype(hash), decltype(same_key)> seen(
      rows.size(), hash, same_key);
  size_t kept = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    // rows[kept] is free: either row i itself or a dropped duplicate.
    if (i != kept) rows[kept] = std::move(rows[i]);
    if (seen.insert(kept).second) ++kept;
  }
  rows.resize(kept);
}

}  // namespace idivm
