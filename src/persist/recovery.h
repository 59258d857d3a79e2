// Crash recovery: open the snapshot and the WAL, truncate the log at the
// first torn or corrupt record, and roll the views forward by replaying
// the committed tail through the already-compiled ∆-scripts (snapshot →
// LoadRepository → one ViewManager::Refresh per batch). This turns the
// paper's maintenance-vs-recompute tradeoff into a restart-time win:
// replay touches only what the diffs touch, while the recompute fallback
// (RecoverMode::kRecompute) re-materializes every view from the recovered
// base tables.

#ifndef IDIVM_PERSIST_RECOVERY_H_
#define IDIVM_PERSIST_RECOVERY_H_

#include <cstdint>
#include <string>

#include "src/core/view_manager.h"
#include "src/storage/access_stats.h"

namespace idivm::persist {

enum class RecoverMode {
  kReplay,     // roll views forward through the ∆-scripts (default)
  kRecompute,  // re-materialize every view from the recovered base tables
};

// How Recover rebuilds the views.
struct RecoverOptions {
  RecoverMode mode = RecoverMode::kReplay;
  // Refresh worker threads while replaying batches (kReplay only).
  int threads = 1;
};

// What Recover rebuilt, what it skipped or discarded, and what it cost.
struct RecoverResult {
  bool ok = false;
  std::string error;

  uint64_t snapshot_lsn = 0;      // LSN the snapshot covered
  uint64_t last_applied_lsn = 0;  // LSN of the last COMMIT rolled forward
  size_t modifications_applied = 0;
  size_t batches_applied = 0;
  size_t records_skipped = 0;    // at or below the snapshot LSN
  size_t records_discarded = 0;  // valid but after the last COMMIT

  // WAL damage report: true when the log ended in a torn or corrupt
  // record (SegmentedWal::Open truncates it away before appending again).
  bool wal_truncated = false;
  std::string wal_truncate_reason;

  // Restart cost, in the Section 6 cost model and wall-clock.
  AccessStats accesses;
  double seconds = 0;
};

// Recovers into `db` (which must be fresh) and `vm` (constructed over
// `db`, with no views defined). On success the base tables, views and
// caches reflect the snapshot plus every complete committed batch of the
// WAL's valid prefix, and `vm` holds the loaded ∆-script repository,
// ready for new modifications. `wal_dir` is a SegmentedWal directory
// (src/persist/wal_set.h).
RecoverResult Recover(Database* db, ViewManager* vm,
                      const std::string& snapshot_path,
                      const std::string& wal_dir,
                      const RecoverOptions& options = {});

}  // namespace idivm::persist

#endif  // IDIVM_PERSIST_RECOVERY_H_
