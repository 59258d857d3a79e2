#include "src/core/modification_log.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

ModificationLogger::ModificationLogger(Database* db) : db_(db) {
  IDIVM_CHECK(db_ != nullptr);
}

bool ModificationLogger::Insert(const std::string& table, Row row) {
  Table& t = db_->GetTable(table);
  if (t.LookupByKeyUncounted(ProjectRow(row, t.key_indices())).has_value()) {
    return false;  // primary-key violation: reject without journaling
  }
  Modification mod;
  mod.kind = DiffType::kInsert;
  mod.post = row;
  if (journal_ != nullptr) journal_->JournalModification(table, mod);
  const bool ok = t.Insert(std::move(row));
  IDIVM_CHECK(ok, StrCat("insert into ", table, ": primary key exists"));
  log_[table].push_back(std::move(mod));
  return true;
}

bool ModificationLogger::Delete(const std::string& table, const Row& key) {
  Table& t = db_->GetTable(table);
  std::optional<Row> pre = t.LookupByKeyUncounted(key);
  if (!pre.has_value()) return false;
  Modification mod;
  mod.kind = DiffType::kDelete;
  mod.pre = std::move(*pre);
  if (journal_ != nullptr) journal_->JournalModification(table, mod);
  t.DeleteByKey(key);
  log_[table].push_back(std::move(mod));
  return true;
}

bool ModificationLogger::Update(const std::string& table, const Row& key,
                                const std::vector<std::string>& set_columns,
                                const Row& values) {
  Table& t = db_->GetTable(table);
  for (const std::string& col : set_columns) {
    IDIVM_CHECK(std::find(t.key_columns().begin(), t.key_columns().end(),
                          col) == t.key_columns().end(),
                StrCat("primary keys are immutable: ", table, ".", col));
  }
  std::optional<Row> pre = t.LookupByKeyUncounted(key);
  if (!pre.has_value()) return false;
  const std::vector<size_t> set_indices =
      t.schema().ColumnIndices(set_columns);
  Modification mod;
  mod.kind = DiffType::kUpdate;
  mod.pre = *pre;
  mod.post = *pre;
  for (size_t i = 0; i < set_indices.size(); ++i) {
    mod.post[set_indices[i]] = values[i];
  }
  if (journal_ != nullptr) journal_->JournalModification(table, mod);
  t.UpdateByKey(key, set_indices, values);
  log_[table].push_back(std::move(mod));
  return true;
}

bool ModificationLogger::Apply(const std::string& table,
                               const Modification& mod) {
  const Table& t = db_->GetTable(table);
  switch (mod.kind) {
    case DiffType::kInsert:
      return Insert(table, mod.post);
    case DiffType::kDelete:
      return Delete(table, ProjectRow(mod.pre, t.key_indices()));
    case DiffType::kUpdate: {
      std::vector<std::string> set_columns;
      Row values;
      for (size_t i = 0; i < t.schema().num_columns(); ++i) {
        if (mod.pre[i].Compare(mod.post[i]) != 0 ||
            mod.pre[i].type() != mod.post[i].type()) {
          set_columns.push_back(t.schema().column(i).name);
          values.push_back(mod.post[i]);
        }
      }
      if (set_columns.empty()) return true;  // no-op update
      return Update(table, ProjectRow(mod.pre, t.key_indices()), set_columns,
                    values);
    }
  }
  return false;
}

std::map<std::string, std::vector<Modification>>
ModificationLogger::NetChanges() const {
  std::map<std::string, std::vector<Modification>> out;
  for (const auto& [table, mods] : log_) {
    const Table& t = db_->GetTable(table);
    std::vector<Modification> net =
        ComputeNetChanges(t.schema(), t.key_indices(), mods);
    if (!net.empty()) out[table] = std::move(net);
  }
  return out;
}

}  // namespace idivm
