#include "src/persist/wal_set.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/obs/metrics.h"

namespace idivm::persist {

namespace {

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".wal";

// seg-00000000000000000001.wal -> 1; returns false on any other name.
bool ParseSegmentName(const std::string& name, uint64_t* first_lsn) {
  const size_t prefix = sizeof(kSegmentPrefix) - 1;
  const size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix) return false;
  if (name.compare(0, prefix, kSegmentPrefix) != 0) return false;
  if (name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *first_lsn = value;
  return true;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

// The directory's segment files, sorted by first LSN. Returns false when
// the directory cannot be listed.
bool ListSegments(const std::string& dir, std::vector<WalSegmentInfo>* out,
                  std::string* error) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    *error = StrCat("cannot list WAL directory ", dir);
    return false;
  }
  while (struct dirent* entry = ::readdir(d)) {
    uint64_t first_lsn = 0;
    if (!ParseSegmentName(entry->d_name, &first_lsn)) continue;
    WalSegmentInfo info;
    info.path = StrCat(dir, "/", entry->d_name);
    info.first_lsn = first_lsn;
    info.bytes = FileBytes(info.path);
    out->push_back(std::move(info));
  }
  ::closedir(d);
  std::sort(out->begin(), out->end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.first_lsn < b.first_lsn;
            });
  return true;
}

}  // namespace

SegmentedReadResult ReadSegmentedWal(const std::string& dir) {
  SegmentedReadResult result;
  if (!ListSegments(dir, &result.segments, &result.error)) return result;
  result.ok = true;
  uint64_t prev_lsn = 0;
  for (size_t s = 0; s < result.segments.size(); ++s) {
    WalSegmentInfo& segment = result.segments[s];
    // An unreadable or mis-headed segment is damage, not a hard error:
    // everything before it already replays.
    WalReadResult wal = ReadWal(segment.path);
    if (!wal.records.empty() && wal.records.front().lsn <= prev_lsn) {
      // A segment's own records are monotone, so the seam is the damage.
      wal.damage = StrCat("non-monotone LSN ", wal.records.front().lsn,
                          " across segment seam ", segment.path, " after ",
                          prev_lsn);
      wal.records.clear();
    }
    for (size_t r = 0; r < wal.records.size(); ++r) {
      prev_lsn = wal.records[r].lsn;
      segment.last_lsn = prev_lsn;
      result.records.push_back(std::move(wal.records[r]));
      result.record_ends.push_back(WalPosition{s, wal.record_end_offsets[r]});
    }
    if (!wal.damage.empty()) {
      // Later segments sit past the damage in append order.
      result.truncated = true;
      result.truncate_reason = std::move(wal.damage);
      result.torn_segment = segment.path;
      break;
    }
  }
  return result;
}

SegmentedWal::SegmentedWal(std::string dir,
                           const SegmentedWalOptions& options)
    : dir_(std::move(dir)), options_(options) {}

std::unique_ptr<SegmentedWal> SegmentedWal::Open(
    const std::string& dir, const SegmentedWalOptions& options) {
  SegmentedReadResult read = ReadSegmentedWal(dir);
  if (!read.ok) return nullptr;
  std::unique_ptr<SegmentedWal> wal(new SegmentedWal(dir, options));

  // Resume after the last record a recovery replay would honour — a
  // COMMIT, CHECKPOINT or QUARANTINE record. Everything past it (valid-
  // but-uncommitted tail records, torn records, whole later segments) is
  // discarded, so a writer resuming here can never diverge from what
  // Recover() reconstructed from the same directory. With no such record
  // anywhere the directory starts over at LSN 1.
  size_t keep = 0;  // segments kept: those up to the boundary's
  for (size_t r = read.records.size(); r-- > 0;) {
    const WalRecord& record = read.records[r];
    if (record.type == WalRecordType::kInsert ||
        record.type == WalRecordType::kDelete ||
        record.type == WalRecordType::kUpdate) {
      continue;
    }
    const WalPosition end = read.record_ends[r];
    WalSegmentInfo& boundary = read.segments[end.segment];
    if (end.offset < boundary.bytes &&
        !TruncateFile(boundary.path, end.offset)) {
      return nullptr;
    }
    boundary.bytes = end.offset;
    boundary.last_lsn = record.lsn;
    wal->next_lsn_ = record.lsn + 1;
    keep = end.segment + 1;
    break;
  }
  for (size_t i = keep; i < read.segments.size(); ++i) {
    std::remove(read.segments[i].path.c_str());
  }
  read.segments.resize(keep);
  wal->closed_ = std::move(read.segments);
  wal->StartSegment();
  if (wal->active_ == nullptr) return nullptr;
  return wal;
}

void SegmentedWal::StartSegment() {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%020llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(next_lsn_), kSegmentSuffix);
  active_first_lsn_ = next_lsn_;
  active_ = WalWriter::Create(StrCat(dir_, "/", name));
}

uint64_t SegmentedWal::Append(WalRecord record) {
  record.lsn = next_lsn_++;
  active_->Append(record);
  return record.lsn;
}

uint64_t SegmentedWal::JournalModification(const std::string& table,
                                           const Modification& mod) {
  WalRecord record;
  switch (mod.kind) {
    case DiffType::kInsert:
      record.type = WalRecordType::kInsert;
      break;
    case DiffType::kDelete:
      record.type = WalRecordType::kDelete;
      break;
    case DiffType::kUpdate:
      record.type = WalRecordType::kUpdate;
      break;
  }
  record.table = table;
  record.mod = mod;
  return Append(std::move(record));
}

uint64_t SegmentedWal::JournalCommit() {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  const uint64_t lsn = Append(std::move(record));
  MaybeRotate();
  return lsn;
}

uint64_t SegmentedWal::JournalQuarantine(const std::string& view,
                                         const std::string& reason) {
  WalRecord record;
  record.type = WalRecordType::kQuarantine;
  record.table = view;
  record.quarantine_reason = reason;
  return Append(std::move(record));
}

uint64_t SegmentedWal::JournalCheckpoint(uint64_t snapshot_lsn,
                                         const std::string& snapshot_path) {
  WalRecord record;
  record.type = WalRecordType::kCheckpoint;
  record.snapshot_lsn = snapshot_lsn;
  record.snapshot_path = snapshot_path;
  const uint64_t lsn = Append(std::move(record));
  MaybeRotate();
  return lsn;
}

void SegmentedWal::MaybeRotate() {
  if (options_.rotate_bytes == 0) return;
  if (active_->bytes_appended() < options_.rotate_bytes) return;
  Rotate();
}

bool SegmentedWal::Rotate() {
  if (next_lsn_ == active_first_lsn_) return false;  // no records yet
  active_->Sync();
  WalSegmentInfo info;
  info.path = active_->path();
  info.first_lsn = active_first_lsn_;
  info.last_lsn = last_lsn();
  info.bytes = active_->bytes_appended();
  active_.reset();  // close before the new segment opens
  closed_.push_back(std::move(info));
  StartSegment();
  IDIVM_CHECK(active_ != nullptr,
              StrCat("cannot open WAL segment in ", dir_));
  obs::GlobalCounter("idivm_wal_rotations_total").Increment();
  return true;
}

uint64_t SegmentedWal::TruncateBefore(uint64_t lsn) {
  uint64_t freed = 0;
  std::vector<WalSegmentInfo> keep;
  for (WalSegmentInfo& segment : closed_) {
    if (segment.last_lsn <= lsn) {
      if (std::remove(segment.path.c_str()) == 0) {
        freed += segment.bytes;
        continue;
      }
      // Deletion failure is not fatal — the segment just stays until the
      // next housekeeping pass gets another shot.
    }
    keep.push_back(std::move(segment));
  }
  closed_ = std::move(keep);
  if (freed > 0) {
    obs::GlobalCounter("idivm_wal_truncated_bytes_total")
        .Increment(static_cast<int64_t>(freed));
  }
  return freed;
}

void SegmentedWal::Sync() { active_->Sync(); }

uint64_t SegmentedWal::TotalBytes() const {
  uint64_t total = active_->bytes_appended();
  for (const WalSegmentInfo& segment : closed_) total += segment.bytes;
  return total;
}

std::vector<WalSegmentInfo> SegmentedWal::Segments() const {
  std::vector<WalSegmentInfo> out = closed_;
  WalSegmentInfo active;
  active.path = active_->path();
  active.first_lsn = active_first_lsn_;
  active.last_lsn = last_lsn() >= active_first_lsn_ ? last_lsn() : 0;
  active.bytes = active_->bytes_appended();
  out.push_back(std::move(active));
  return out;
}

}  // namespace idivm::persist
