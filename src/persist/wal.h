// The write-ahead log's segment-file format: the records, the writer that
// appends them to one segment file, and the reader of one segment file. A
// log is a directory of such segments, journaled and read as one LSN-
// ordered stream by SegmentedWal and ReadSegmentedWal (wal_set.h); nothing
// else opens a segment. Recovery (src/persist/recovery) replays the stream
// in COMMIT-delimited batches through the compiled ∆-scripts.
//
// Segment layout: an 8-byte header (magic "IDWL" + u32 version) followed by
// CRC32C-framed records (src/persist/codec). Record payloads carry a
// monotone LSN, so a reader can both detect torn/corrupt tails (framing)
// and skip records already covered by a snapshot (LSN).

#ifndef IDIVM_PERSIST_WAL_H_
#define IDIVM_PERSIST_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/diff/compaction.h"

namespace idivm::persist {

enum class WalRecordType : uint8_t {
  kInsert = 1,
  kDelete = 2,
  kUpdate = 3,
  kCommit = 4,
  kCheckpoint = 5,
  // A view was quarantined by the degradation ladder: its materialized
  // state is stale from this LSN on. Informational; replay skips it.
  kQuarantine = 6,
};

// One log record, as journaled and as read back.
struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  uint64_t lsn = 0;
  // Modification records only: the table and the recorded rows (insert
  // carries post, delete pre, update both). Quarantine records reuse
  // `table` for the view name.
  std::string table;
  Modification mod;
  // Checkpoint records only: the LSN the snapshot covers and its path.
  uint64_t snapshot_lsn = 0;
  std::string snapshot_path;
  // Quarantine records only: the epoch failure that caused it.
  std::string quarantine_reason;
};

// Appends records to one segment file. SegmentedWal creates every writer
// and assigns the LSNs. Appends are buffered; a COMMIT, CHECKPOINT or
// QUARANTINE record is flushed and fsynced before Append returns (a
// quarantine may not be followed by a commit for a while). A failed write
// or fsync aborts: the journal cannot promise durability past it.
class WalWriter {
 public:
  // Creates (truncating any existing file) the segment at `path` and
  // makes its header durable. Returns nullptr if the file cannot be opened.
  static std::unique_ptr<WalWriter> Create(const std::string& path);

  ~WalWriter();  // flushes (without fsync) and closes

  void Append(const WalRecord& record);

  // Pushes buffered appends to the OS.
  void Flush();
  // Flush + fsync.
  void Sync();

  const std::string& path() const { return path_; }

  // File size once buffered appends are flushed (header + every framed
  // record) — the rotation signal of SegmentedWal, tracked so no stat()
  // sits on the journal hot path.
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  WalWriter(std::string path, int fd);

  std::string path_;
  int fd_ = -1;
  std::string buffer_;
  uint64_t bytes_appended_ = 0;
};

// The valid records of one segment file (the per-segment step of
// ReadSegmentedWal).
struct WalReadResult {
  std::vector<WalRecord> records;
  // File offset just past each record, parallel to `records`.
  std::vector<uint64_t> record_end_offsets;
  // Empty when the whole file was read; otherwise why reading stopped (an
  // unreadable file, a bad header, or a torn or corrupt record).
  std::string damage;
};

// Reads all valid records of the segment at `path`, stopping at the first
// torn or corrupt record. An LSN that fails to increase monotonically is
// also treated as corruption. An empty file is a valid, empty segment.
WalReadResult ReadWal(const std::string& path);

// Cuts `path` back to `size` bytes. Returns false on I/O error.
bool TruncateFile(const std::string& path, uint64_t size);

}  // namespace idivm::persist

#endif  // IDIVM_PERSIST_WAL_H_
