// Atomic maintenance epochs: every Maintainer::TryMaintain runs as an
// epoch that records one undo entry (a core Modification) per stored-table
// row it touches — APPLY inserts/deletes/updates on views and caches, and
// the γ operator-cache mutations. On any stage failure the epoch rolls
// every table back to its pre-epoch contents, in reverse record order,
// before the error surfaces.
//
// Capture granularity: hot paths (src/diff/apply.cc, the γ operator-cache
// loop) accumulate one before-image *region* per (epoch, table, APPLY/γ
// step) and hand it over with a single RecordBatch call — one lock
// acquisition per step instead of one per touched row. The region is
// flattened into one entry per touched row, in application order, so
// size(), RollBack(), MoveEntriesTo() (the MVCC redo hand-off) and
// TakeEntries() observe per-tuple order whatever the batch boundaries.
//
// Ordering under parallel execution: APPLYs to one target are serialized
// by the DAG scheduler and blocking γ steps run exclusively (barriers), so
// entries for any single table are recorded in program order; concurrent
// entries interleaved across *different* tables commute, making the single
// reversed sequence a correct undo whatever the interleaving was — the
// γ-barrier-aware ordering the epoch protocol relies on.
//
// Rollback itself is free in the cost model (it restores the pre-epoch
// world, including AccessStats): it runs under a discarded StatsArena.

#ifndef IDIVM_ROBUST_EPOCH_H_
#define IDIVM_ROBUST_EPOCH_H_

#include <mutex>
#include <vector>

#include "src/diff/compaction.h"
#include "src/storage/table.h"

namespace idivm {

class EpochUndo {
 public:
  EpochUndo() = default;
  EpochUndo(const EpochUndo&) = delete;
  EpochUndo& operator=(const EpochUndo&) = delete;

  // Records a whole before-image region — every mutation one APPLY/γ step
  // made to `table`, in application order — under a single lock
  // acquisition, as one entry per element of `mods`. Inserts carry `post`,
  // deletes `pre`, updates both (full rows). The batch boundary is
  // observable only through the contract-v5 counters
  // (idivm_undo_batches_total, idivm_undo_batched_bytes_total). No-op for
  // an empty batch. Thread-safe.
  void RecordBatch(Table* table, std::vector<Modification> mods);

  size_t size() const;

  // Undoes every recorded mutation in reverse order and clears the log.
  // Charges nothing (runs under a StatsArena that is never published).
  void RollBack();

  void Clear();

  // Appends this log's entries to `dest` (in recorded order) and clears
  // this log — the commit path of snapshot-read mode, where a successful
  // epoch's undo log becomes the redo delta that derives the next table
  // versions (the undo machinery doubling as the MVCC version store).
  void MoveEntriesTo(EpochUndo* dest);

  // Takes the recorded entries, leaving the log empty.
  std::vector<std::pair<Table*, Modification>> TakeEntries();

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<Table*, Modification>> entries_;
};

// Scope-bound before-image region for one (table, APPLY/γ step): collects
// the step's modifications locally and records them as one batch when the
// scope exits — error paths included, so a failed step's applied prefix is
// still rollback-able. Null `undo` makes the batch inert (no capture).
class EpochUndoBatch {
 public:
  EpochUndoBatch(EpochUndo* undo, Table* table)
      : undo_(undo), table_(table) {}
  EpochUndoBatch(const EpochUndoBatch&) = delete;
  EpochUndoBatch& operator=(const EpochUndoBatch&) = delete;
  ~EpochUndoBatch() {
    if (undo_ != nullptr) undo_->RecordBatch(table_, std::move(mods_));
  }

  bool active() const { return undo_ != nullptr; }
  void Add(Modification mod) { mods_.push_back(std::move(mod)); }

 private:
  EpochUndo* undo_;
  Table* table_;
  std::vector<Modification> mods_;
};

}  // namespace idivm

#endif  // IDIVM_ROBUST_EPOCH_H_
