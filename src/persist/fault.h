// Fault injection for durability tests: a FaultFile keeps a pristine
// in-memory copy of a source file and rewrites a scratch path with one
// fault applied at a time — a truncated tail (torn write) or a flipped
// bit (media corruption) — so recovery can be driven into every failure
// mode deterministically.

#ifndef IDIVM_PERSIST_FAULT_H_
#define IDIVM_PERSIST_FAULT_H_

#include <cstdint>
#include <string>

namespace idivm::persist {

// One source file's pristine bytes, rewritten at a scratch path with one
// fault at a time.
class FaultFile {
 public:
  // Reads `source` into memory (aborts if unreadable); faults are
  // materialized at `scratch`, which is overwritten on every call.
  FaultFile(const std::string& source, std::string scratch);

  // Scratch = the first `prefix` bytes of the source (crash mid-write).
  const std::string& TruncatedAt(uint64_t prefix);

  // Scratch = full copy with bit `bit` (0-7) of byte `offset` flipped.
  const std::string& WithBitFlip(uint64_t offset, int bit);

  // Scratch = pristine copy.
  const std::string& Pristine();

  const std::string& path() const { return scratch_; }
  uint64_t source_size() const { return source_bytes_.size(); }

 private:
  void WriteScratch(const std::string& bytes);

  std::string scratch_;
  std::string source_bytes_;
};

}  // namespace idivm::persist

#endif  // IDIVM_PERSIST_FAULT_H_
