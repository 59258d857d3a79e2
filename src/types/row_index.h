// The one hash index, from the key columns of a caller's rows (handed to
// every probe) to their positions: the indexes of tables, stored and
// pre-state, and hash joins. Power-of-two buckets hold chain heads and
// tails, each position its key hash and next/prev links: a key's positions
// come back in insertion order (chains append at the tail; regrowth
// re-links them in order), an erase unlinks in O(1), and a build over n
// rows is one pass over arrays sized once.

#ifndef IDIVM_TYPES_ROW_INDEX_H_
#define IDIVM_TYPES_ROW_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/types/relation.h"

namespace idivm {

class RowIndex {
 public:
  // An index on `columns`, offsets in the indexed rows, over every row of
  // `rows`.
  explicit RowIndex(std::vector<size_t> columns,
                    const std::vector<Row>& rows = {})
      : columns_(std::move(columns)) {
    Reset(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) Insert(rows[i], i);
  }

  const std::vector<size_t>& columns() const { return columns_; }

  // Empties the index and sizes it for positions [0, n).
  void Reset(size_t n) {
    const size_t count = std::bit_ceil(std::max<size_t>(n, 8));
    buckets_.assign(count, Chain{});
    shift_ = 64 - std::countr_zero(count);
    nodes_.assign(n, Node{});
  }

  // Indexes position `pos`, holding `row`, at the end of its key's chain.
  void Insert(const Row& row, size_t pos) {
    IDIVM_CHECK(pos < kNone, "RowIndex position out of range");
    if (pos >= nodes_.size()) nodes_.resize(pos + 1);
    nodes_[pos].hash = HashRowKey(row, columns_);
    while (nodes_.size() > buckets_.size()) Grow();  // load factor <= 1
    Append(static_cast<uint32_t>(pos));
  }

  // Unlinks the indexed position `pos`.
  void Erase(size_t pos) {
    const Node& node = nodes_[pos];
    Chain& chain = buckets_[BucketOf(node.hash)];
    (node.prev == kNone ? chain.head : nodes_[node.prev].next) = node.next;
    (node.next == kNone ? chain.tail : nodes_[node.next].prev) = node.prev;
  }

  // Calls fn(pos) for every indexed position of `rows` whose key columns
  // equal `key` under Value::Compare, in insertion order.
  template <typename Fn>
  void ForEachMatch(const std::vector<Row>& rows, const Row& key,
                    Fn&& fn) const {
    const size_t hash = HashKey(key);
    for (uint32_t pos = buckets_[BucketOf(hash)].head; pos != kNone;
         pos = nodes_[pos].next) {
      if (nodes_[pos].hash == hash && KeyEquals(rows[pos], key)) fn(pos);
    }
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  struct Chain {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };
  struct Node {
    size_t hash = 0;
    uint32_t next = kNone;
    uint32_t prev = kNone;
  };

  // The top bits of a Fibonacci multiply depend on every bit of the hash;
  // its low bits alone would not spread strided integer keys.
  size_t BucketOf(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  bool KeyEquals(const Row& row, const Row& key) const {
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (row[columns_[i]].Compare(key[i]) != 0) return false;
    }
    return true;
  }

  // Links `pos` at the tail of its chain.
  void Append(uint32_t pos) {
    Node& node = nodes_[pos];
    Chain& chain = buckets_[BucketOf(node.hash)];
    node.next = kNone;
    node.prev = chain.tail;
    (chain.tail == kNone ? chain.head : nodes_[chain.tail].next) = pos;
    chain.tail = pos;
  }

  // Doubles the buckets. Walking each old chain in order keeps every key's
  // positions in order.
  void Grow() {
    const std::vector<Chain> old =
        std::exchange(buckets_, std::vector<Chain>(2 * buckets_.size()));
    --shift_;
    for (const Chain& chain : old) {
      for (uint32_t pos = chain.head, next; pos != kNone; pos = next) {
        next = nodes_[pos].next;
        Append(pos);
      }
    }
  }

  std::vector<size_t> columns_;
  std::vector<Chain> buckets_;
  int shift_ = 0;            // 64 - log2(buckets_.size())
  std::vector<Node> nodes_;  // per position, indexed or not
};

}  // namespace idivm

#endif  // IDIVM_TYPES_ROW_INDEX_H_
