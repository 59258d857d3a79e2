#include "src/diff/diff_schema.h"

#include <algorithm>
#include <set>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

const char* DiffTypeName(DiffType type) {
  switch (type) {
    case DiffType::kInsert:
      return "+";
    case DiffType::kDelete:
      return "-";
    case DiffType::kUpdate:
      return "u";
  }
  IDIVM_UNREACHABLE("bad DiffType");
}

std::string PreName(const std::string& attr) { return attr + kPreSuffix; }

std::string PostName(const std::string& attr) { return attr + kPostSuffix; }

std::string StripStateSuffix(const std::string& name) {
  const std::string pre(kPreSuffix);
  const std::string post(kPostSuffix);
  if (name.size() > pre.size() &&
      name.compare(name.size() - pre.size(), pre.size(), pre) == 0) {
    return name.substr(0, name.size() - pre.size());
  }
  if (name.size() > post.size() &&
      name.compare(name.size() - post.size(), post.size(), post) == 0) {
    return name.substr(0, name.size() - post.size());
  }
  return name;
}

DiffSchema::DiffSchema(DiffType type, std::string target,
                       const Schema& target_schema,
                       std::vector<std::string> id_columns,
                       std::vector<std::string> pre_columns,
                       std::vector<std::string> post_columns, bool additive)
    : type_(type),
      additive_(additive),
      target_(std::move(target)),
      id_columns_(std::move(id_columns)),
      pre_columns_(std::move(pre_columns)),
      post_columns_(std::move(post_columns)) {
  IDIVM_CHECK(!id_columns_.empty(), "i-diff needs ID columns");
  IDIVM_CHECK(!additive_ || type_ == DiffType::kUpdate,
              "only update i-diffs can be additive");
  if (type_ == DiffType::kInsert) {
    IDIVM_CHECK(pre_columns_.empty(), "insert i-diffs carry no pre-state");
  }
  if (type_ == DiffType::kDelete) {
    IDIVM_CHECK(post_columns_.empty(), "delete i-diffs carry no post-state");
  }
  const std::set<std::string> ids(id_columns_.begin(), id_columns_.end());
  std::vector<ColumnDef> cols;
  for (const std::string& name : id_columns_) {
    cols.push_back(
        {name, target_schema.column(target_schema.ColumnIndex(name)).type});
  }
  for (const std::string& name : pre_columns_) {
    IDIVM_CHECK(ids.count(name) == 0,
                StrCat("pre column overlaps ID: ", name, " (target ",
                       target_, ", ids ", Join(id_columns_, ","), ", pre ",
                       Join(pre_columns_, ","), ")"));
    cols.push_back({PreName(name),
                    target_schema.column(target_schema.ColumnIndex(name))
                        .type});
  }
  for (const std::string& name : post_columns_) {
    IDIVM_CHECK(ids.count(name) == 0,
                StrCat("post column overlaps ID: ", name));
    cols.push_back({PostName(name),
                    target_schema.column(target_schema.ColumnIndex(name))
                        .type});
  }
  relation_schema_ = Schema(std::move(cols));
}

bool DiffSchema::HasPost(const std::string& attr) const {
  return std::find(post_columns_.begin(), post_columns_.end(), attr) !=
         post_columns_.end();
}

bool DiffSchema::HasPre(const std::string& attr) const {
  return std::find(pre_columns_.begin(), pre_columns_.end(), attr) !=
         pre_columns_.end();
}

std::string DiffSchema::ToString() const {
  std::string out = StrCat("∆", DiffTypeName(type_), "_", target_, "(",
                           Join(id_columns_, ", "));
  if (!pre_columns_.empty()) {
    out += StrCat(" | pre: ", Join(pre_columns_, ", "));
  }
  if (!post_columns_.empty()) {
    out += StrCat(additive_ ? " | post(+=): " : " | post: ",
                  Join(post_columns_, ", "));
  }
  out += ")";
  return out;
}

}  // namespace idivm
