// Immutable table versions — the storage half of the MVCC read subsystem.
//
// A TableVersion is the full contents of one stored table at one committed
// epoch, frozen: readers holding a version (through an mvcc::Snapshot) see
// exactly the state the epoch published, however many refreshes run
// concurrently. Versions are refcounted (std::shared_ptr); a version's
// memory is reclaimed when the last holder releases it — that release IS
// the garbage collection, and it is metered (idivm_snapshot_gc_bytes_total)
// through custom deleters so the accounting fires exactly once, at the true
// last release, whichever thread performs it.
//
// Representation: base + overlay. The base is a materialized relation with
// a primary-key index, shared (immutable, refcounted) across consecutive
// versions; the overlay is this version's net per-key divergence from the
// base (a live row, or a tombstone). Deriving the next version from an
// epoch's redo entries therefore costs O(|overlay| + |delta|) — the epoch
// undo log, replayed forward, is the version store — and when the overlay
// outgrows the base a rebase rematerializes it (amortized O(delta) per
// commit). Point reads are one overlay probe plus one base-index probe.

#ifndef IDIVM_MVCC_TABLE_VERSION_H_
#define IDIVM_MVCC_TABLE_VERSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/diff/compaction.h"
#include "src/storage/table.h"
#include "src/types/relation.h"
#include "src/types/schema.h"

namespace idivm::mvcc {

class TableVersion {
 public:
  // ---- Factories (SnapshotRegistry only; versions are immutable) ----

  // Materializes the table's current live contents as a fresh base with an
  // empty overlay (initial tracking, recompute-rung republish, overlay
  // rebase). Counted under idivm_version_rebases_total.
  static std::shared_ptr<const TableVersion> Materialize(const Table& table,
                                                         uint64_t epoch);

  // Derives the next version from `prev` by replaying `delta` forward
  // (per-table program order, full pre/post images — exactly what the
  // epoch undo log records). Shares `prev`'s base unless the grown overlay
  // triggers a rebase.
  static std::shared_ptr<const TableVersion> Derive(
      const std::shared_ptr<const TableVersion>& prev,
      const std::vector<Modification>& delta, uint64_t epoch);

  // ---- Read API (uncounted: snapshot reads are outside the Section 6
  //      maintenance cost model, like every data-modification-time read) --

  const std::string& table_name() const { return name_; }
  const Schema& schema() const { return schema_; }
  // The epoch at which this version was published.
  uint64_t epoch() const { return epoch_; }
  // Number of live rows.
  size_t size() const { return live_rows_; }

  // Primary-key point lookup against this version.
  std::optional<Row> LookupByKey(const Row& key) const;

  // Streams every live row (base order, then overlay order).
  void ForEachRow(const std::function<void(const Row&)>& fn) const;

  // Materializes all live rows (bag order as ForEachRow).
  Relation Scan() const;

  // Rows diverging from the shared base (tests, rebase policy).
  size_t overlay_size() const { return overlay_.size(); }

  // Approximate heap bytes owned exclusively by this version (overlay +
  // bookkeeping; the shared base is accounted by its own deleter).
  size_t ApproxOwnBytes() const { return own_bytes_; }

 private:
  // The shared materialized state some ancestor version froze. Its deleter
  // charges idivm_snapshot_gc_bytes_total when the last sharing version
  // dies.
  struct Base {
    Relation rows;
    std::map<Row, size_t, RowLess> index;  // primary key -> slot in rows
  };

  TableVersion() = default;

  static std::shared_ptr<const Base> BuildBase(Relation rows,
                                               const std::vector<size_t>& keys);
  // Wraps a finished version so its deleter meters the GC'd bytes.
  static std::shared_ptr<const TableVersion> Seal(
      std::unique_ptr<TableVersion> version);

  std::string name_;
  Schema schema_;
  std::vector<size_t> key_indices_;
  uint64_t epoch_ = 0;
  std::shared_ptr<const Base> base_;
  // Net divergence from base_: key -> live row (insert/update) or
  // std::nullopt (tombstone for a base row deleted since).
  std::map<Row, std::optional<Row>, RowLess> overlay_;
  size_t live_rows_ = 0;
  size_t own_bytes_ = 0;
};

// Approximate heap footprint of a row (Value payloads + vector storage);
// the unit behind idivm_snapshot_gc_bytes_total.
size_t ApproxRowBytes(const Row& row);

}  // namespace idivm::mvcc

#endif  // IDIVM_MVCC_TABLE_VERSION_H_
