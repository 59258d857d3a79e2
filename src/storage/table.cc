#include "src/storage/table.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace idivm {

Table::Table(std::string name, Schema schema,
             std::vector<std::string> key_columns, AccessStats* stats)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_columns_(std::move(key_columns)),
      key_indices_(schema_.ColumnIndices(key_columns_)),
      stats_(stats),
      primary_(key_indices_) {
  IDIVM_CHECK(stats_ != nullptr, "Table requires an AccessStats sink");
  IDIVM_CHECK(!key_columns_.empty(),
              StrCat("table ", name_, " needs a primary key"));
}

std::vector<size_t> Table::IndexProbe(const RowIndex& index,
                                      const Row& key) const {
  std::vector<size_t> out;
  index.ForEachMatch(rows_, key, [&](size_t slot) { out.push_back(slot); });
  return out;
}

const RowIndex* Table::FindIndex(const std::vector<size_t>& columns) const {
  if (columns == key_indices_) return &primary_;
  for (const RowIndex& idx : secondary_) {
    if (idx.columns() == columns) return &idx;
  }
  return nullptr;
}

const RowIndex& Table::IndexOn(const std::vector<size_t>& columns) const {
  const RowIndex* idx = FindIndex(columns);
  IDIVM_CHECK(idx != nullptr, [&] {
    std::vector<std::string> names;
    for (size_t c : columns) names.push_back(schema_.column(c).name);
    return StrCat("table ", name_, " has no index on (", Join(names, ", "),
                  ")");
  }());
  return *idx;
}

void Table::Rebuild(RowIndex& index) const {
  index.Reset(rows_.size());
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) index.Insert(rows_[slot], slot);
  }
}

void Table::EnsureIndex(const std::vector<size_t>& columns) {
  if (FindIndex(columns) == nullptr) Rebuild(secondary_.emplace_back(columns));
}

bool Table::Insert(Row row) {
  IDIVM_CHECK(row.size() == schema_.num_columns(),
              StrCat("bad arity inserting into ", name_));
  const Row key = ProjectRow(row, key_indices_);
  if (!IndexProbe(primary_, key).empty()) return false;  // PK violation
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    rows_[slot] = std::move(row);
    live_[slot] = true;
  } else {
    slot = rows_.size();
    rows_.push_back(std::move(row));
    live_.push_back(true);
  }
  ++live_count_;
  primary_.Insert(rows_[slot], slot);
  for (RowIndex& idx : secondary_) idx.Insert(rows_[slot], slot);
  ChargeWrites(1);
  return true;
}

void Table::EraseSlot(size_t slot) {
  primary_.Erase(slot);
  for (RowIndex& idx : secondary_) idx.Erase(slot);
  live_[slot] = false;
  free_slots_.push_back(slot);
  --live_count_;
}

bool Table::DeleteByKey(const Row& key) {
  return DeleteWhereEquals(key_indices_, key) == 1;
}

bool Table::UpdateByKey(const Row& key, const std::vector<size_t>& set_columns,
                        const Row& new_values) {
  return UpdateRowsWhereEquals(
             key_indices_, key,
             [&](Row& row) {
               for (size_t i = 0; i < set_columns.size(); ++i) {
                 row[set_columns[i]] = new_values[i];
               }
             },
             nullptr, nullptr, /*mutated_columns=*/&set_columns) == 1;
}

size_t Table::DeleteWhereEquals(const std::vector<size_t>& columns,
                                const Row& key,
                                std::vector<Row>* pre_images) {
  const RowIndex& idx = IndexOn(columns);
  ChargeLookup();
  const std::vector<size_t> slots = IndexProbe(idx, key);
  for (size_t slot : slots) {
    if (pre_images != nullptr) pre_images->push_back(rows_[slot]);
    EraseSlot(slot);
    ChargeWrites(1);
  }
  return slots.size();
}

size_t Table::UpdateRowsWhereEquals(
    const std::vector<size_t>& match_columns, const Row& key,
    const std::function<void(Row&)>& mutator, std::vector<Row>* pre_images,
    std::vector<Row>* post_images,
    const std::vector<size_t>* mutated_columns) {
  const RowIndex& match_idx = IndexOn(match_columns);
  ChargeLookup();
  const std::vector<size_t> slots = IndexProbe(match_idx, key);
  if (slots.empty()) return 0;
  // With a mutated-column hint, an index on columns the mutator cannot
  // touch keeps its entries in place: the slot is stable and its key
  // unchanged, so re-indexing would only cost a key hash per row.
  std::vector<RowIndex*> reindex;
  const auto consider = [&](RowIndex& idx) {
    const std::vector<size_t>& cols = idx.columns();
    if (mutated_columns == nullptr ||
        std::find_first_of(cols.begin(), cols.end(), mutated_columns->begin(),
                           mutated_columns->end()) != cols.end()) {
      reindex.push_back(&idx);
    }
  };
  consider(primary_);
  for (RowIndex& idx : secondary_) consider(idx);
  for (size_t slot : slots) {
    if (pre_images != nullptr) pre_images->push_back(rows_[slot]);
    for (RowIndex* idx : reindex) idx->Erase(slot);
    mutator(rows_[slot]);
    for (RowIndex* idx : reindex) idx->Insert(rows_[slot], slot);
    if (post_images != nullptr) post_images->push_back(rows_[slot]);
    ChargeWrites(1);
  }
  return slots.size();
}

std::optional<Row> Table::LookupByKey(const Row& key) {
  ChargeLookup();
  std::optional<Row> row = LookupByKeyUncounted(key);
  if (row.has_value()) ChargeReads(1);
  return row;
}

std::optional<Row> Table::LookupByKeyUncounted(const Row& key) const {
  const std::vector<size_t> slots = IndexProbe(primary_, key);
  if (slots.empty()) return std::nullopt;
  return rows_[slots.front()];
}

std::vector<Row> Table::LookupWhereEquals(const std::vector<size_t>& columns,
                                          const Row& key) {
  const RowIndex& idx = IndexOn(columns);
  ChargeLookup();
  std::vector<Row> out;
  idx.ForEachMatch(rows_, key, [&](size_t slot) {
    ChargeReads(1);
    out.push_back(rows_[slot]);
  });
  return out;
}

bool Table::ContainsRow(const Row& row) {
  ChargeLookup();
  const Row key = ProjectRow(row, key_indices_);
  bool found = false;  // rows after the first equal one are not read
  primary_.ForEachMatch(rows_, key, [&](size_t slot) {
    if (found) return;
    ChargeReads(1);
    found = CompareRows(rows_[slot], row) == 0;
  });
  return found;
}

Relation Table::ScanAll() {
  Relation out(schema_);
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    ChargeReads(1);
    out.Append(rows_[slot]);
  }
  return out;
}

Relation Table::SnapshotUncounted() const {
  Relation out(schema_);
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) out.Append(rows_[slot]);
  }
  return out;
}

void Table::ForEachRowUncounted(
    const std::function<void(const Row&)>& fn) const {
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) fn(rows_[slot]);
  }
}

void Table::BulkLoadUncounted(Relation data) {
  IDIVM_CHECK(data.schema().ColumnNames() == schema_.ColumnNames(),
              StrCat("bulk load schema mismatch for ", name_));
  rows_ = std::move(data.mutable_rows());
  live_.assign(rows_.size(), true);
  free_slots_.clear();
  live_count_ = rows_.size();
  Rebuild(primary_);
  for (RowIndex& idx : secondary_) Rebuild(idx);
}

}  // namespace idivm
