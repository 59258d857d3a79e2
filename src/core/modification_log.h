// Data-modification-time machinery (Section 3, green components): the
// modification logger records base-table changes as they are applied and
// compacts them into net changes, combining multiple modifications of one
// tuple into a single effective change (Section 5). Each epoch routes the
// net changes into instances of the schemas precomputed at view-definition
// time through the offsets its compiled program records (exec::RouteInputs).

#ifndef IDIVM_CORE_MODIFICATION_LOG_H_
#define IDIVM_CORE_MODIFICATION_LOG_H_

#include <map>
#include <string>
#include <vector>

#include "src/diff/compaction.h"
#include "src/storage/database.h"

namespace idivm {

// Durable journal hook: when attached to a ModificationLogger, every
// accepted change is journaled *before* it mutates a Table (write-ahead
// discipline), and refresh batch boundaries are journaled as commits. The
// production implementation is persist::SegmentedWal; keeping the interface
// here lets src/core stay independent of src/persist.
class ModificationJournal {
 public:
  virtual ~ModificationJournal() = default;

  // Journals one modification of `table`. Returns the assigned LSN.
  virtual uint64_t JournalModification(const std::string& table,
                                       const Modification& mod) = 0;

  // Journals a batch boundary (everything journaled since the previous
  // commit forms one recovery replay batch). Returns the assigned LSN.
  virtual uint64_t JournalCommit() = 0;

  // Journals that `view` was taken out of service by the degradation
  // ladder (rung 3): its materialized state is stale until repaired.
  // Informational for recovery — replay skips these records. Default no-op
  // so journal fakes and pre-quarantine implementations stay valid.
  virtual uint64_t JournalQuarantine(const std::string& view,
                                     const std::string& reason) {
    (void)view;
    (void)reason;
    return 0;
  }
};

// Applies modifications to base tables and logs them. Lookup of pre-images
// is uncounted: logging happens at data-modification time, outside the
// maintenance cost model.
class ModificationLogger {
 public:
  explicit ModificationLogger(Database* db);

  // Inserts `row`. Returns false — nothing applied, logged or journaled —
  // when a row with the same primary key already exists. A dropped return
  // value hides a rejected change (and a silently diverging workload), so
  // every caller must inspect it.
  [[nodiscard]] bool Insert(const std::string& table, Row row);

  // Deletes the row with primary key `key`; returns false if absent.
  [[nodiscard]] bool Delete(const std::string& table, const Row& key);

  // Updates `set_columns` of the row with primary key `key` to `values`;
  // returns false if absent. Key columns may not be updated.
  [[nodiscard]] bool Update(const std::string& table, const Row& key,
                            const std::vector<std::string>& set_columns,
                            const Row& values);

  // Re-applies a recorded modification (WAL replay): dispatches on
  // `mod.kind` to Insert/Delete/Update with the recorded rows. Returns
  // false when the current table state rejects it (duplicate key / absent
  // row) — recovery treats that as corruption.
  [[nodiscard]] bool Apply(const std::string& table, const Modification& mod);

  // Attaches (or detaches, with nullptr) the write-ahead journal. Accepted
  // changes are journaled before the table is mutated.
  void set_journal(ModificationJournal* journal) { journal_ = journal; }
  ModificationJournal* journal() const { return journal_; }

  const std::map<std::string, std::vector<Modification>>& log() const {
    return log_;
  }

  // Net effect per table since the last Clear (compacted, Section 5).
  std::map<std::string, std::vector<Modification>> NetChanges() const;

  void Clear() { log_.clear(); }

 private:
  Database* db_;
  ModificationJournal* journal_ = nullptr;
  std::map<std::string, std::vector<Modification>> log_;
};

}  // namespace idivm

#endif  // IDIVM_CORE_MODIFICATION_LOG_H_
