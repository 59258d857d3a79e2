// Versioned little-endian binary encoding for the durability subsystem
// (WAL records and snapshots): scalar primitives, Value/Row/Schema, and
// CRC32C-framed records. The framing is what recovery's truncate-at-first-
// corruption discipline relies on: a record is [u32 payload size][u32
// CRC-32C of payload][payload], so a torn tail shows up as a short frame
// and a bit flip as a checksum mismatch.

#ifndef IDIVM_PERSIST_CODEC_H_
#define IDIVM_PERSIST_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/types/relation.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace idivm::persist {

// CRC-32C (Castagnoli polynomial, reflected), software table implementation.
uint32_t Crc32c(std::string_view data);

// Appends primitives and engine types to a growing byte buffer. All
// multi-byte integers are little-endian regardless of host order; doubles
// travel as their IEEE-754 bit pattern.
class Encoder {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  // u32 byte length + raw bytes (embedded NULs survive).
  void PutString(std::string_view s);
  // Tag byte (0 null, 1 int64, 2 double, 3 string) + payload.
  void PutValue(const Value& v);
  // u32 arity + tagged values.
  void PutRow(const Row& row);
  // u32 column count + (name, type tag) pairs.
  void PutSchema(const Schema& schema);

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Sequential reader over an encoded payload. Get* methods return a zero
// value once the decoder has failed (underflow or malformed data); callers
// decode a batch and check ok() once at the end.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble();
  std::string GetString();
  Value GetValue();
  Row GetRow();
  Schema GetSchema();

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }
  void Fail(const std::string& message);

 private:
  bool Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// ---- CRC-framed records ---------------------------------------------------

// Appends one frame ([u32 size][u32 crc][payload]) to `out`.
void AppendFrame(std::string_view payload, std::string* out);

enum class FrameStatus {
  kOk,       // payload valid
  kEnd,      // offset is exactly the end of the file
  kTorn,     // header or payload extends past the end of the file
  kCorrupt,  // CRC mismatch or absurd length
};

// One frame read by ReadFrame: its status and, when kOk, its payload.
struct FrameResult {
  FrameStatus status = FrameStatus::kTorn;
  std::string_view payload;  // valid iff status == kOk (views into the file)
  size_t end_offset = 0;     // offset just past this frame (kOk only)
  std::string error;
};

// Reads the frame starting at `offset` of an in-memory file image.
FrameResult ReadFrame(std::string_view file, size_t offset);

// Reads an entire file into `out`. Returns false (with `out` untouched
// semantics unspecified) when the file cannot be opened or read.
bool ReadFileToString(const std::string& path, std::string* out);

}  // namespace idivm::persist

#endif  // IDIVM_PERSIST_CODEC_H_
