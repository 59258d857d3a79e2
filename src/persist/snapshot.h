// Point-in-time snapshots: every table of the Database (base tables,
// materialized views and ∆-script caches alike — the recovery story needs
// all three), the serialized ∆-script repository, and the last LSN the
// snapshot covers. Written to a temp file and atomically renamed into
// place, so a crash mid-snapshot leaves the previous snapshot intact; the
// whole payload sits in one CRC32C frame, so a corrupted snapshot is
// detected rather than half-loaded.

#ifndef IDIVM_PERSIST_SNAPSHOT_H_
#define IDIVM_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "src/storage/database.h"

namespace idivm::persist {

// Serializes `db` plus `repository` (ViewManager::SerializeRepository) and
// `last_lsn` (the last WAL LSN the snapshot state reflects) to `path`.
// Returns "" on success, an error message otherwise; on error the temp file
// is gone and any previous snapshot at `path` is untouched.
std::string WriteSnapshot(const Database& db, const std::string& repository,
                          uint64_t last_lsn, const std::string& path);

// A loaded snapshot's LSN and ∆-script repository, or why it failed.
struct SnapshotLoadResult {
  bool ok = false;
  std::string error;
  uint64_t last_lsn = 0;
  std::string repository;  // to feed ViewManager::LoadRepository
};

// Restores every snapshotted table into `db` (whose catalog must not
// already contain them). On failure nothing is guaranteed about `db`'s
// contents — recover into a fresh Database.
SnapshotLoadResult LoadSnapshotInto(Database* db, const std::string& path);

}  // namespace idivm::persist

#endif  // IDIVM_PERSIST_SNAPSHOT_H_
