#include "src/persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/common/str_util.h"
#include "src/persist/codec.h"

namespace idivm::persist {

namespace {

constexpr char kSnapshotMagic[4] = {'I', 'D', 'S', 'N'};
constexpr uint32_t kSnapshotVersion = 1;

std::string EncodeSnapshot(const Database& db, const std::string& repository,
                           uint64_t last_lsn) {
  Encoder enc;
  enc.PutU32(kSnapshotVersion);
  enc.PutU64(last_lsn);
  enc.PutString(repository);
  const std::vector<std::string> tables = db.TableNames();
  enc.PutU32(static_cast<uint32_t>(tables.size()));
  for (const std::string& name : tables) {
    const Table& table = db.GetTable(name);
    enc.PutString(name);
    enc.PutSchema(table.schema());
    enc.PutU32(static_cast<uint32_t>(table.key_columns().size()));
    for (const std::string& key : table.key_columns()) enc.PutString(key);
    enc.PutU64(table.size());
    table.ForEachRowUncounted([&enc](const Row& row) { enc.PutRow(row); });
  }
  return enc.TakeBuffer();
}

}  // namespace

std::string WriteSnapshot(const Database& db, const std::string& repository,
                          uint64_t last_lsn, const std::string& path) {
  std::string file;
  file.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendFrame(EncodeSnapshot(db, repository, last_lsn), &file);

  const std::string tmp = StrCat(path, ".tmp");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return StrCat("cannot create ", tmp, ": ", std::strerror(errno));
  }
  // Drops the temp file after a failed step.
  const auto fail = [&](const char* step) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return StrCat(step, " ", tmp, " failed: ", err);
  };
  size_t done = 0;
  while (done < file.size()) {
    const ssize_t n = ::write(fd, file.data() + done, file.size() - done);
    if (n < 0) return fail("write to");
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("fsync of");
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return StrCat("rename to ", path, " failed: ", err);
  }
  return "";
}

SnapshotLoadResult LoadSnapshotInto(Database* db, const std::string& path) {
  SnapshotLoadResult result;
  std::string file;
  if (!ReadFileToString(path, &file)) {
    result.error = StrCat("cannot read snapshot at ", path);
    return result;
  }
  if (file.size() < sizeof(kSnapshotMagic) ||
      std::memcmp(file.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    result.error = StrCat(path, " is not a snapshot (bad magic)");
    return result;
  }
  const FrameResult frame = ReadFrame(file, sizeof(kSnapshotMagic));
  if (frame.status != FrameStatus::kOk) {
    result.error = StrCat("snapshot damaged: ",
                          frame.error.empty() ? "empty" : frame.error);
    return result;
  }
  if (frame.end_offset != file.size()) {
    result.error = "trailing bytes after snapshot frame";
    return result;
  }
  Decoder dec(frame.payload);
  const uint32_t version = dec.GetU32();
  if (version != kSnapshotVersion) {
    result.error = StrCat("unsupported snapshot version ", version);
    return result;
  }
  result.last_lsn = dec.GetU64();
  result.repository = dec.GetString();
  const uint32_t ntables = dec.GetU32();
  for (uint32_t i = 0; i < ntables && dec.ok(); ++i) {
    const std::string name = dec.GetString();
    const Schema schema = dec.GetSchema();
    const uint32_t nkeys = dec.GetU32();
    std::vector<std::string> key_columns;
    for (uint32_t k = 0; k < nkeys && dec.ok(); ++k) {
      key_columns.push_back(dec.GetString());
    }
    const uint64_t nrows = dec.GetU64();
    if (!dec.ok()) break;
    if (db->HasTable(name)) {
      result.error = StrCat("table already exists in catalog: ", name);
      return result;
    }
    Relation data(schema);
    for (uint64_t r = 0; r < nrows; ++r) {
      Row row = dec.GetRow();
      if (!dec.ok()) break;
      data.Append(std::move(row));
    }
    if (!dec.ok()) break;
    Table& table = db->CreateTable(name, schema, std::move(key_columns));
    table.BulkLoadUncounted(data);
  }
  if (!dec.ok()) {
    result.error = StrCat("snapshot decode failed: ", dec.error());
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace idivm::persist
