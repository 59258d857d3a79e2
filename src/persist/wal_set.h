// The write-ahead log: a directory of segment files (wal.h, each named
// seg-<first-lsn>.wal), journaled by SegmentedWal and read back by
// ReadSegmentedWal as one LSN-ordered record stream. A SegmentedWal
// rotates to a fresh segment at the first batch boundary after the active
// segment passes rotate_bytes, and truncates — deletes whole segments —
// once a snapshot covers them. Disk usage is therefore bounded by the
// rotation policy instead of growing for the life of the process (the gap
// bench_recovery exposed: replay only beats recompute for short WAL tails,
// so an unbounded tail is also a recovery regression, not just a disk
// leak). A log that never rotates is a one-segment directory.
//
// Rotation happens only immediately after a COMMIT or CHECKPOINT record, so
// a recovery replay batch never begins mid-segment-write; batches may still
// *span* a seam (the records of one batch end in segment k and its COMMIT
// opens the read of segment k+1's bytes), which ReadSegmentedWal handles by
// concatenating segments in LSN order.

#ifndef IDIVM_PERSIST_WAL_SET_H_
#define IDIVM_PERSIST_WAL_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/modification_log.h"
#include "src/persist/wal.h"

namespace idivm::persist {

// How a SegmentedWal splits its directory into segments.
struct SegmentedWalOptions {
  // Rotate to a new segment at the first batch boundary after the active
  // segment's size passes this (0 disables size-triggered rotation;
  // explicit Rotate() still works).
  uint64_t rotate_bytes = 1 << 20;
};

// One live segment file.
struct WalSegmentInfo {
  std::string path;
  uint64_t first_lsn = 0;  // first LSN the segment may hold (from its name)
  uint64_t last_lsn = 0;   // last record it holds (0: empty)
  uint64_t bytes = 0;      // on-disk size
};

// The durable ModificationJournal: every change accepted by the
// ModificationLogger is journaled here before it mutates a Table, and
// ViewManager::Refresh journals a COMMIT record delimiting each refresh
// batch. Every segment fsyncs at each COMMIT, CHECKPOINT and QUARANTINE
// record. Not internally synchronized — journaling is serialized by the
// caller (e.g. a MaintenanceService's pump thread), like every other
// ModificationJournal.
class SegmentedWal : public ModificationJournal {
 public:
  // Opens (or creates) the log in the existing directory `dir`. Resuming a
  // directory that holds segments truncates back to the last batch
  // boundary (COMMIT / CHECKPOINT / QUARANTINE record) that
  // ReadSegmentedWal reports, discarding torn records, valid-but-
  // uncommitted tail records, and any segments past the boundary — exactly
  // the records Recover() would discard, so appending after a crash never
  // diverges from the recovered state — and appends to a fresh segment.
  // Returns nullptr when the directory is unusable.
  static std::unique_ptr<SegmentedWal> Open(
      const std::string& dir, const SegmentedWalOptions& options = {});

  ~SegmentedWal() override = default;

  // ModificationJournal: journals one modification / batch commit /
  // view quarantine.
  uint64_t JournalModification(const std::string& table,
                               const Modification& mod) override;
  uint64_t JournalCommit() override;
  uint64_t JournalQuarantine(const std::string& view,
                             const std::string& reason) override;

  // Journals that a snapshot covering everything up to `snapshot_lsn` was
  // written at `snapshot_path` (always fsynced).
  uint64_t JournalCheckpoint(uint64_t snapshot_lsn,
                             const std::string& snapshot_path);

  // Closes the active segment and opens a fresh one. Returns false (and
  // rotates nothing) when the active segment holds no records yet.
  bool Rotate();

  // Deletes every closed segment whose records are all <= `lsn` (covered
  // by a snapshot). The active segment is never deleted. Returns the bytes
  // freed; they are also counted in idivm_wal_truncated_bytes_total.
  uint64_t TruncateBefore(uint64_t lsn);

  // Flush + fsync the active segment.
  void Sync();

  uint64_t last_lsn() const { return next_lsn_ - 1; }
  const std::string& dir() const { return dir_; }

  // Live on-disk bytes across closed + active segments.
  uint64_t TotalBytes() const;
  // Closed segments followed by the active one.
  std::vector<WalSegmentInfo> Segments() const;

 private:
  SegmentedWal(std::string dir, const SegmentedWalOptions& options);

  // Assigns the next LSN to `record` and appends it to the active segment.
  uint64_t Append(WalRecord record);
  // After a batch-boundary record: rotate when past the size threshold.
  void MaybeRotate();
  // Opens a fresh active segment whose first record gets `next_lsn_`.
  void StartSegment();

  std::string dir_;
  SegmentedWalOptions options_;
  std::vector<WalSegmentInfo> closed_;
  std::unique_ptr<WalWriter> active_;
  uint64_t active_first_lsn_ = 1;
  uint64_t next_lsn_ = 1;
};

// Where a record ends on disk: its segment (an index into
// SegmentedReadResult::segments) and the byte offset just past it there.
struct WalPosition {
  size_t segment = 0;
  uint64_t offset = 0;
};

// The read side: every record across the directory's segments, in LSN
// order, stopping at the first torn or corrupt record (later segments are
// ignored — they sit past the damage in append order).
struct SegmentedReadResult {
  bool ok = false;      // directory listable
  std::string error;    // set when !ok
  std::vector<WalRecord> records;
  // Where each record ends, parallel to `records`: the crash points of the
  // fault-injection tests and SegmentedWal::Open's resume point.
  std::vector<WalPosition> record_ends;
  // True when reading stopped before the end of the data: `torn_segment`
  // is the file where it stopped.
  bool truncated = false;
  std::string truncate_reason;
  std::string torn_segment;
  // Every segment found, in LSN order (including ones past the damage).
  std::vector<WalSegmentInfo> segments;
};

SegmentedReadResult ReadSegmentedWal(const std::string& dir);

}  // namespace idivm::persist

#endif  // IDIVM_PERSIST_WAL_SET_H_
