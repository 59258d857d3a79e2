#include "src/persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/obs/metrics.h"
#include "src/persist/codec.h"

namespace idivm::persist {

namespace {

constexpr char kWalMagic[4] = {'I', 'D', 'W', 'L'};
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 8;
// Buffered modification records are pushed to the OS once the buffer
// passes this size (bounds memory, not durability).
constexpr size_t kFlushThresholdBytes = 1 << 16;

std::string EncodeRecord(const WalRecord& record) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(record.type));
  enc.PutU64(record.lsn);
  switch (record.type) {
    case WalRecordType::kInsert:
      enc.PutString(record.table);
      enc.PutRow(record.mod.post);
      break;
    case WalRecordType::kDelete:
      enc.PutString(record.table);
      enc.PutRow(record.mod.pre);
      break;
    case WalRecordType::kUpdate:
      enc.PutString(record.table);
      enc.PutRow(record.mod.pre);
      enc.PutRow(record.mod.post);
      break;
    case WalRecordType::kCommit:
      break;
    case WalRecordType::kCheckpoint:
      enc.PutU64(record.snapshot_lsn);
      enc.PutString(record.snapshot_path);
      break;
    case WalRecordType::kQuarantine:
      enc.PutString(record.table);
      enc.PutString(record.quarantine_reason);
      break;
  }
  return enc.TakeBuffer();
}

// Decodes one record payload. Returns false (with `error`) on malformed
// payloads — treated as corruption by the reader.
bool DecodeRecord(std::string_view payload, WalRecord* out,
                  std::string* error) {
  Decoder dec(payload);
  const uint8_t type = dec.GetU8();
  out->lsn = dec.GetU64();
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kInsert):
      out->type = WalRecordType::kInsert;
      out->mod.kind = DiffType::kInsert;
      out->table = dec.GetString();
      out->mod.post = dec.GetRow();
      break;
    case static_cast<uint8_t>(WalRecordType::kDelete):
      out->type = WalRecordType::kDelete;
      out->mod.kind = DiffType::kDelete;
      out->table = dec.GetString();
      out->mod.pre = dec.GetRow();
      break;
    case static_cast<uint8_t>(WalRecordType::kUpdate):
      out->type = WalRecordType::kUpdate;
      out->mod.kind = DiffType::kUpdate;
      out->table = dec.GetString();
      out->mod.pre = dec.GetRow();
      out->mod.post = dec.GetRow();
      break;
    case static_cast<uint8_t>(WalRecordType::kCommit):
      out->type = WalRecordType::kCommit;
      break;
    case static_cast<uint8_t>(WalRecordType::kCheckpoint):
      out->type = WalRecordType::kCheckpoint;
      out->snapshot_lsn = dec.GetU64();
      out->snapshot_path = dec.GetString();
      break;
    case static_cast<uint8_t>(WalRecordType::kQuarantine):
      out->type = WalRecordType::kQuarantine;
      out->table = dec.GetString();
      out->quarantine_reason = dec.GetString();
      break;
    default:
      *error = StrCat("unknown record type ", static_cast<int>(type));
      return false;
  }
  if (!dec.ok()) {
    *error = dec.error();
    return false;
  }
  if (!dec.AtEnd()) {
    *error = "trailing bytes in record payload";
    return false;
  }
  return true;
}

}  // namespace

WalWriter::WalWriter(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

std::unique_ptr<WalWriter> WalWriter::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return nullptr;
  std::unique_ptr<WalWriter> writer(new WalWriter(path, fd));
  writer->buffer_.append(kWalMagic, sizeof(kWalMagic));
  Encoder enc;
  enc.PutU32(kWalVersion);
  writer->buffer_.append(enc.buffer());
  writer->bytes_appended_ = writer->buffer_.size();
  writer->Sync();
  return writer;
}

WalWriter::~WalWriter() {
  Flush();
  if (fd_ >= 0) ::close(fd_);
}

void WalWriter::Append(const WalRecord& record) {
  const size_t before = buffer_.size();
  AppendFrame(EncodeRecord(record), &buffer_);
  bytes_appended_ += buffer_.size() - before;
  obs::GlobalCounter("idivm_wal_records_total").Increment();
  if (record.type == WalRecordType::kCommit) {
    obs::GlobalCounter("idivm_wal_commits_total").Increment();
  }
  if (record.type == WalRecordType::kCommit ||
      record.type == WalRecordType::kCheckpoint ||
      record.type == WalRecordType::kQuarantine) {
    Sync();
  } else if (buffer_.size() >= kFlushThresholdBytes) {
    Flush();
  }
}

void WalWriter::Flush() {
  size_t done = 0;
  while (done < buffer_.size()) {
    const ssize_t n =
        ::write(fd_, buffer_.data() + done, buffer_.size() - done);
    IDIVM_CHECK(n >= 0, StrCat("wal write failed: ", std::strerror(errno)));
    done += static_cast<size_t>(n);
  }
  buffer_.clear();
}

void WalWriter::Sync() {
  Flush();
  const bool synced = ::fsync(fd_) == 0;
  IDIVM_CHECK(synced, StrCat("wal fsync failed: ", std::strerror(errno)));
  obs::GlobalCounter("idivm_wal_syncs_total").Increment();
}

WalReadResult ReadWal(const std::string& path) {
  WalReadResult result;
  std::string file;
  if (!ReadFileToString(path, &file)) {
    result.damage = StrCat("cannot read WAL at ", path);
    return result;
  }
  // A segment whose header never reached the disk: valid and empty.
  if (file.empty()) return result;
  if (file.size() < kWalHeaderBytes ||
      std::memcmp(file.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    result.damage = StrCat(path, " is not a WAL (bad magic)");
    return result;
  }
  {
    Decoder header(std::string_view(file).substr(4, 4));
    const uint32_t version = header.GetU32();
    if (version != kWalVersion) {
      result.damage = StrCat("unsupported WAL version ", version);
      return result;
    }
  }
  size_t offset = kWalHeaderBytes;
  uint64_t prev_lsn = 0;
  while (true) {
    const FrameResult frame = ReadFrame(file, offset);
    if (frame.status == FrameStatus::kEnd) break;
    if (frame.status != FrameStatus::kOk) {
      result.damage = frame.error;
      break;
    }
    WalRecord record;
    std::string error;
    if (!DecodeRecord(frame.payload, &record, &error)) {
      result.damage = StrCat("undecodable record: ", error);
      break;
    }
    if (record.lsn <= prev_lsn) {
      result.damage =
          StrCat("non-monotone LSN ", record.lsn, " after ", prev_lsn);
      break;
    }
    prev_lsn = record.lsn;
    offset = frame.end_offset;
    result.records.push_back(std::move(record));
    result.record_end_offsets.push_back(offset);
  }
  return result;
}

bool TruncateFile(const std::string& path, uint64_t size) {
  return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0;
}

}  // namespace idivm::persist
