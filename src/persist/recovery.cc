#include "src/persist/recovery.h"

#include <chrono>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal_set.h"

namespace idivm::persist {

RecoverResult Recover(Database* db, ViewManager* vm,
                      const std::string& snapshot_path,
                      const std::string& wal_dir,
                      const RecoverOptions& options) {
  RecoverResult result;
  const auto start = std::chrono::steady_clock::now();
  db->stats().Reset();

  const SnapshotLoadResult snapshot = LoadSnapshotInto(db, snapshot_path);
  if (!snapshot.ok) {
    result.error = snapshot.error;
    return result;
  }
  result.snapshot_lsn = snapshot.last_lsn;
  result.last_applied_lsn = snapshot.last_lsn;
  if (!snapshot.repository.empty()) {
    const std::string error = vm->LoadRepository(snapshot.repository);
    if (!error.empty()) {
      result.error = StrCat("repository load failed: ", error);
      return result;
    }
  }

  const SegmentedReadResult wal = ReadSegmentedWal(wal_dir);
  if (!wal.ok) {
    result.error = wal.error;
    return result;
  }
  result.wal_truncated = wal.truncated;
  result.wal_truncate_reason = wal.truncate_reason;

  // Group the tail into COMMIT-delimited batches; a trailing batch without
  // a COMMIT never became visible to Refresh pre-crash and is discarded.
  struct Batch {
    std::vector<const WalRecord*> mods;
    uint64_t commit_lsn = 0;
  };
  std::vector<Batch> batches;
  std::vector<const WalRecord*> pending;
  for (const WalRecord& record : wal.records) {
    if (record.lsn <= snapshot.last_lsn) {
      ++result.records_skipped;
      continue;
    }
    switch (record.type) {
      case WalRecordType::kInsert:
      case WalRecordType::kDelete:
      case WalRecordType::kUpdate:
        pending.push_back(&record);
        break;
      case WalRecordType::kCommit:
        batches.push_back(Batch{std::move(pending), record.lsn});
        pending.clear();
        break;
      case WalRecordType::kCheckpoint:
        break;  // informational: a snapshot exists elsewhere
      case WalRecordType::kQuarantine:
        // Informational: the pre-crash engine took this view out of
        // service. Replay reconstructs every view from the journaled base
        // changes, which also repairs whatever made it quarantined.
        break;
    }
  }
  result.records_discarded = pending.size();

  const bool replay = options.mode == RecoverMode::kReplay;
  for (const Batch& batch : batches) {
    for (const WalRecord* record : batch.mods) {
      if (!vm->logger().Apply(record->table, record->mod)) {
        result.error =
            StrCat("replay rejected at LSN ", record->lsn, " (",
                   record->table, "): state diverges from the journal");
        return result;
      }
      ++result.modifications_applied;
    }
    if (replay) {
      vm->Refresh(RefreshOptions{.threads = options.threads});
    } else {
      vm->logger().Clear();  // base tables only; views rebuilt below
    }
    result.last_applied_lsn = batch.commit_lsn;
    ++result.batches_applied;
  }
  if (!replay) vm->RecomputeAllViews();

  result.accesses = db->stats();
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  result.ok = true;
  return result;
}

}  // namespace idivm::persist
