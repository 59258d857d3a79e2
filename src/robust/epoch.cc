#include "src/robust/epoch.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/obs/metrics.h"

namespace idivm {

namespace {

size_t ApproxRowBytes(const Row& row) {
  size_t bytes = row.size() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == DataType::kString) bytes += v.AsString().size();
  }
  return bytes;
}

}  // namespace

void EpochUndo::RecordBatch(Table* table, std::vector<Modification> mods) {
  if (mods.empty()) return;
  size_t bytes = 0;
  for (const Modification& mod : mods) {
    bytes += sizeof(Modification) + ApproxRowBytes(mod.pre) +
             ApproxRowBytes(mod.post);
  }
  static obs::Counter& batches = obs::GlobalCounter("idivm_undo_batches_total");
  static obs::Counter& batched_bytes =
      obs::GlobalCounter("idivm_undo_batched_bytes_total");
  batches.Increment(1);
  batched_bytes.Increment(static_cast<int64_t>(bytes));
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.reserve(entries_.size() + mods.size());
  for (Modification& mod : mods) {
    entries_.emplace_back(table, std::move(mod));
  }
}

size_t EpochUndo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void EpochUndo::RollBack() {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::GlobalCounter("idivm_epoch_rollback_entries_total")
      .Increment(static_cast<int64_t>(entries_.size()));
  // The failed epoch must vanish from the cost model too: divert every
  // charge the undo writes would make into an arena that is dropped.
  StatsArena discard;
  ScopedStatsArena scope(&discard);
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    Table* table = it->first;
    const Modification& mod = it->second;
    switch (mod.kind) {
      case DiffType::kInsert: {
        const bool erased =
            table->DeleteByKey(ProjectRow(mod.post, table->key_indices()));
        IDIVM_CHECK(erased, StrCat("epoch undo: inserted row vanished from ",
                                   table->name()));
        break;
      }
      case DiffType::kDelete: {
        const bool inserted = table->Insert(mod.pre);
        IDIVM_CHECK(inserted, StrCat("epoch undo: deleted key reappeared in ",
                                     table->name()));
        break;
      }
      case DiffType::kUpdate: {
        // Restore as delete + re-insert so even key-affecting mutations
        // (none are emitted today, but the undo must not care) revert.
        const bool erased =
            table->DeleteByKey(ProjectRow(mod.post, table->key_indices()));
        IDIVM_CHECK(erased, StrCat("epoch undo: updated row vanished from ",
                                   table->name()));
        const bool inserted = table->Insert(mod.pre);
        IDIVM_CHECK(inserted,
                    StrCat("epoch undo: pre-image key collision in ",
                           table->name()));
        break;
      }
    }
  }
  entries_.clear();
  // `discard` goes out of scope unpublished: rollback charged nothing.
}

void EpochUndo::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

void EpochUndo::MoveEntriesTo(EpochUndo* dest) {
  IDIVM_CHECK(dest != this, "EpochUndo::MoveEntriesTo onto itself");
  std::vector<std::pair<Table*, Modification>> taken = TakeEntries();
  std::lock_guard<std::mutex> lock(dest->mutex_);
  if (dest->entries_.empty()) {
    dest->entries_ = std::move(taken);
  } else {
    dest->entries_.insert(dest->entries_.end(),
                          std::make_move_iterator(taken.begin()),
                          std::make_move_iterator(taken.end()));
  }
}

std::vector<std::pair<Table*, Modification>> EpochUndo::TakeEntries() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<Table*, Modification>> taken;
  taken.swap(entries_);
  return taken;
}

}  // namespace idivm
