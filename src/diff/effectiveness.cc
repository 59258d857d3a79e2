#include "src/diff/effectiveness.h"

#include <map>
#include <set>

#include "src/common/str_util.h"

namespace idivm {

namespace {

bool CheckInsert(const DiffInstance& diff, const Relation& post,
                 std::string* why) {
  // Every inserted tuple must exist in the post-state.
  const Schema& diff_rel = diff.schema().relation_schema();
  // Target column order: resolve each post-state column from the diff.
  std::vector<size_t> source_cols;
  for (const ColumnDef& col : post.schema().columns()) {
    std::optional<size_t> idx = diff_rel.FindColumn(col.name);
    if (!idx.has_value()) idx = diff_rel.FindColumn(PostName(col.name));
    if (!idx.has_value()) {
      if (why != nullptr) {
        *why = StrCat("insert diff lacks column ", col.name);
      }
      return false;
    }
    source_cols.push_back(*idx);
  }
  std::set<Row, RowLess> post_rows(post.rows().begin(), post.rows().end());
  for (const Row& row : diff.data().rows()) {
    const Row as_target = ProjectRow(row, source_cols);
    if (post_rows.find(as_target) == post_rows.end()) {
      if (why != nullptr) {
        *why = StrCat("inserted tuple not in post-state: row ",
                      Relation(post.schema(), {as_target}).ToString());
      }
      return false;
    }
  }
  return true;
}

bool CheckDelete(const DiffInstance& diff, const Relation& post,
                 std::string* why) {
  // No post-state tuple may match a deleted Ī′ key.
  const Schema& diff_rel = diff.schema().relation_schema();
  std::vector<size_t> diff_ids;
  std::vector<size_t> post_ids;
  for (const std::string& attr : diff.schema().id_columns()) {
    diff_ids.push_back(diff_rel.ColumnIndex(attr));
    post_ids.push_back(post.schema().ColumnIndex(attr));
  }
  std::set<Row, RowLess> deleted_keys;
  for (const Row& row : diff.data().rows()) {
    deleted_keys.insert(ProjectRow(row, diff_ids));
  }
  for (const Row& row : post.rows()) {
    if (deleted_keys.count(ProjectRow(row, post_ids)) > 0) {
      if (why != nullptr) {
        *why = "post-state still contains a tuple with a deleted key";
      }
      return false;
    }
  }
  return true;
}

bool CheckUpdate(const DiffInstance& diff, const Relation& post,
                 std::string* why) {
  // Every post-state tuple matching an updated key must carry the diff's
  // post values on the updated attributes.
  const Schema& diff_rel = diff.schema().relation_schema();
  std::vector<size_t> diff_ids;
  std::vector<size_t> post_ids;
  for (const std::string& attr : diff.schema().id_columns()) {
    diff_ids.push_back(diff_rel.ColumnIndex(attr));
    post_ids.push_back(post.schema().ColumnIndex(attr));
  }
  std::vector<size_t> diff_posts;
  std::vector<size_t> post_attrs;
  for (const std::string& attr : diff.schema().post_columns()) {
    diff_posts.push_back(diff_rel.ColumnIndex(PostName(attr)));
    post_attrs.push_back(post.schema().ColumnIndex(attr));
  }
  std::map<Row, Row, RowLess> expected;  // key -> post values
  for (const Row& row : diff.data().rows()) {
    expected[ProjectRow(row, diff_ids)] = ProjectRow(row, diff_posts);
  }
  for (const Row& row : post.rows()) {
    const auto it = expected.find(ProjectRow(row, post_ids));
    if (it == expected.end()) continue;
    const Row actual = ProjectRow(row, post_attrs);
    if (CompareRows(actual, it->second) != 0) {
      if (why != nullptr) {
        *why = "post-state tuple disagrees with update diff post values";
      }
      return false;
    }
  }
  return true;
}

}  // namespace

bool IsEffective(const DiffInstance& diff, const Relation& post_state,
                 std::string* why) {
  switch (diff.schema().type()) {
    case DiffType::kInsert:
      return CheckInsert(diff, post_state, why);
    case DiffType::kDelete:
      return CheckDelete(diff, post_state, why);
    case DiffType::kUpdate:
      return CheckUpdate(diff, post_state, why);
  }
  return false;
}

}  // namespace idivm
