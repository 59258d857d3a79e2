// Plan evaluation with the paper's cost discipline.
//
// The Section 6 analysis assumes the DBMS executes ∆/D-script queries with a
// *diff-driven loop plan*: for each diff tuple, index-probe the stored
// relations it joins with (1 index lookup + p tuple reads per probe).
// Evaluate reproduces that by lowering the plan to a physical plan
// (physical_plan.h) against its context's bindings and running it: whenever
// a join/semijoin pairs a transient (diff-only) input with a stored access
// path, the stored side is probed through its indexes, charging exactly the
// paper's accesses. Everything else falls back to hash/nested-loop joins
// over materialized inputs, whose Scan leaves charge one read per stored
// tuple.

#ifndef IDIVM_ALGEBRA_EVALUATOR_H_
#define IDIVM_ALGEBRA_EVALUATOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "src/algebra/plan.h"
#include "src/storage/database.h"
#include "src/types/relation.h"
#include "src/types/row_index.h"

namespace idivm {

// A materialized relation with on-demand hash indexes that charges the same
// costs as a stored Table. Used for reconstructed pre-state tables.
class IndexedRelation {
 public:
  IndexedRelation(Relation data, AccessStats* stats);

  // Full scan; charges one tuple read per row.
  Relation ScanCounted() const;

  // Rows whose `columns` equal `key`; charges 1 index lookup + 1 read per
  // returned row.
  std::vector<Row> Probe(const std::vector<size_t>& columns,
                         const Row& key) const;

 private:
  // Finds or builds the index on `columns`. The build is serialized so
  // concurrent script steps can probe the same pre-state relation; a built
  // index is immutable (the relation never changes), so probing it after
  // the lookup needs no lock.
  const RowIndex& GetOrBuildIndex(const std::vector<size_t>& columns) const;

  Relation data_;
  AccessStats* stats_;
  // unique_ptr keeps IndexedRelation movable despite the mutex.
  std::unique_ptr<std::mutex> index_mutex_ = std::make_unique<std::mutex>();
  mutable std::map<std::vector<size_t>, RowIndex> indexes_;
};

// Everything a plan may reference during evaluation.
struct EvalContext {
  // Stored tables in post-state; never null.
  Database* db = nullptr;
  // Reconstructed pre-state for modified tables; tables not present here are
  // identical in pre- and post-state. May be null (no pre-state scans).
  const std::map<std::string, IndexedRelation>* pre_state = nullptr;
  // Transient named relations (i-diff / t-diff instances). Reads are free.
  std::map<std::string, const Relation*> transient;
  // Tables that received updates/deletes this round: CoalesceProbe nodes
  // avoiding one of these must take the fallback path (the cache/view copy
  // of their attributes may be stale mid-script). May be null.
  const std::set<std::string>* assist_unsafe_tables = nullptr;
};

// Evaluates `plan` to a materialized relation: lowers it against `ctx`'s
// stored schemas and transient bindings, builds the indexes it probes, then
// runs it. The plan must lower (LowerPlan): a missing table or column, or a
// ref `ctx` does not bind with the ref's columns, fails a check before any
// row is read. Never runs beside an epoch.
Relation Evaluate(const PlanPtr& plan, const EvalContext& ctx);

// Builds, charge-free, every stored-table index `plan` probes once lowered
// against `ctx`, so an engine can build them before its first epoch.
void EnsureProbedIndexes(const PlanPtr& plan, const EvalContext& ctx);

}  // namespace idivm

#endif  // IDIVM_ALGEBRA_EVALUATOR_H_
