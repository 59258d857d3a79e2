// Stored, indexed relations.
//
// A Table is a slotted row store with a unique primary-key hash index and
// secondary hash indexes on arbitrary column subsets (idIVM applies i-diffs
// through indexes on subsets of a view's key components, Section 2). As the
// Section 6 cost model assumes, an index exists before it is probed:
// EnsureIndex is its only creator, and a probe without one fails a check.
// Every access is charged to the owning Database's AccessStats,
// implementing the Section 6 cost model.

#ifndef IDIVM_STORAGE_TABLE_H_
#define IDIVM_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/storage/access_stats.h"
#include "src/types/relation.h"
#include "src/types/row_index.h"
#include "src/types/schema.h"

namespace idivm {

class Table {
 public:
  // `key_columns` name the primary key (must be non-empty and exist in
  // `schema`). `stats` is owned by the enclosing Database and may not be
  // null; it outlives the table.
  Table(std::string name, Schema schema, std::vector<std::string> key_columns,
        AccessStats* stats);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<std::string>& key_columns() const { return key_columns_; }
  const std::vector<size_t>& key_indices() const { return key_indices_; }

  // Number of live rows.
  size_t size() const { return live_count_; }

  // ---- Modification API (each row touched charges tuple_writes) ----

  // Inserts a row. Returns false (and does not charge a write) when a row
  // with the same primary key already exists.
  bool Insert(Row row);

  // Deletes the row with the given primary key. Returns true if it existed.
  bool DeleteByKey(const Row& key);

  // Updates columns `set_columns` of the row with primary key `key` to
  // `new_values`. Returns true if the row existed.
  bool UpdateByKey(const Row& key, const std::vector<size_t>& set_columns,
                   const Row& new_values);

  // Deletes every row whose `columns` equal `key` (via their index).
  // Returns the number of rows deleted. When `pre_images` is non-null the
  // deleted rows are appended to it (RETURNING).
  size_t DeleteWhereEquals(const std::vector<size_t>& columns, const Row& key,
                           std::vector<Row>* pre_images = nullptr);

  // General in-place update: applies `mutator` to every row whose
  // `match_columns` equal `key` (one index lookup + one tuple write per
  // touched row — the paper's UPDATE cost). Optionally captures the rows
  // before/after mutation (PostgreSQL's UPDATE .. RETURNING, which the
  // ID-based algorithm uses to obtain cache diffs for free, Appendix A.2).
  //
  // When `mutated_columns` is non-null it is a caller contract that
  // `mutator` writes no column outside that set; indexes whose key columns
  // are disjoint from it keep their entries (slots are stable and the
  // hashed key bytes cannot change), skipping the erase/rehash/insert
  // round-trip per index per row. Charges are identical either way — the
  // cost model counts tuple writes, not index touches.
  size_t UpdateRowsWhereEquals(const std::vector<size_t>& match_columns,
                               const Row& key,
                               const std::function<void(Row&)>& mutator,
                               std::vector<Row>* pre_images = nullptr,
                               std::vector<Row>* post_images = nullptr,
                               const std::vector<size_t>* mutated_columns =
                                   nullptr);

  // ---- Read API (charges index_lookups / tuple_reads) ----

  // Primary-key point lookup; returns a copy of the row if present.
  std::optional<Row> LookupByKey(const Row& key);

  // Like LookupByKey but charges nothing (used by the modification logger at
  // data-modification time, which is outside the maintenance cost model).
  std::optional<Row> LookupByKeyUncounted(const Row& key) const;

  // All rows whose `columns` equal `key`, via a secondary (or primary)
  // hash index. Charges 1 index lookup + 1 read per returned row.
  std::vector<Row> LookupWhereEquals(const std::vector<size_t>& columns,
                                     const Row& key);

  // True iff a row with exactly these values exists (full-row membership,
  // used by the insert i-diff APPLY guard). Charges 1 index lookup on the
  // primary key plus reads for rows inspected.
  bool ContainsRow(const Row& row);

  // Full scan: copies all live rows. Charges one read per row.
  Relation ScanAll();

  // Reads table contents without charging accesses (testing / setup / full
  // recomputation baselines that are costed separately).
  Relation SnapshotUncounted() const;

  // Streams every live row to `fn` without charging accesses or copying
  // the relation (snapshot serialization, src/persist).
  void ForEachRowUncounted(const std::function<void(const Row&)>& fn) const;

  // Replaces the entire contents without charging accesses (bulk load),
  // re-indexing every index.
  void BulkLoadUncounted(Relation data);

  // Builds a hash index on the column offsets `columns` unless one exists,
  // charging nothing (the paper's model assumes indices pre-exist at
  // maintenance time). Must not run beside a probe of this table.
  void EnsureIndex(const std::vector<size_t>& columns);

  // Number of hash indexes, the primary one included.
  size_t index_count() const { return 1 + secondary_.size(); }

  // Per-table accesses (in addition to the Database-wide counter): lets
  // benches separate base-table accesses from view/cache accesses — the
  // quantity the paper's Section 9 insert-i-diff extension minimizes.
  const AccessStats& local_stats() const { return local_stats_; }
  void ResetLocalStats() { local_stats_.Reset(); }

 private:
  // Charges go through ChargeSink so a thread executing a script step under
  // a StatsArena accumulates privately instead of racing on the shared
  // counters (parallel ∆-script execution; see access_stats.h).
  void ChargeLookup() {
    ++ChargeSink(stats_).index_lookups;
    ++ChargeSink(&local_stats_).index_lookups;
  }
  void ChargeReads(int64_t n) {
    ChargeSink(stats_).tuple_reads += n;
    ChargeSink(&local_stats_).tuple_reads += n;
  }
  void ChargeWrites(int64_t n) {
    ChargeSink(stats_).tuple_writes += n;
    ChargeSink(&local_stats_).tuple_writes += n;
  }
  // The index on `columns`: or null, or a failed check naming them.
  const RowIndex* FindIndex(const std::vector<size_t>& columns) const;
  const RowIndex& IndexOn(const std::vector<size_t>& columns) const;
  // Slots whose index columns equal `key`, in insertion order.
  std::vector<size_t> IndexProbe(const RowIndex& index, const Row& key) const;
  // Re-indexes every live slot in `index`.
  void Rebuild(RowIndex& index) const;
  void EraseSlot(size_t slot);

  std::string name_;
  Schema schema_;
  std::vector<std::string> key_columns_;
  std::vector<size_t> key_indices_;
  AccessStats* stats_;
  AccessStats local_stats_;

  std::vector<Row> rows_;
  std::vector<bool> live_;
  std::vector<size_t> free_slots_;
  size_t live_count_ = 0;

  RowIndex primary_;  // unique index on key_indices_
  // Probes need no lock: the set never changes while an epoch runs, and
  // the parallel executor orders table writes against reads.
  std::vector<RowIndex> secondary_;
};

}  // namespace idivm

#endif  // IDIVM_STORAGE_TABLE_H_
