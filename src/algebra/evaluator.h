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
#include <set>
#include <string>
#include <vector>

#include "src/algebra/plan.h"
#include "src/storage/database.h"
#include "src/types/relation.h"

namespace idivm {

// Per stored table read in pre-state, the column offsets each pre-state
// probe leaf looks it up on (none when it is only scanned).
using PreStateIndexes = std::map<std::string, std::set<std::vector<size_t>>>;

// Everything a plan may reference during evaluation.
struct EvalContext {
  // Stored tables in post-state; never null.
  Database* db = nullptr;
  // The reconstructed pre-state of each table changed this epoch, a Table
  // its engine owns and indexed when the engine was built; a table not
  // here is identical in pre- and post-state. May be null (no pre-state
  // reads).
  const std::map<std::string, Table*>* pre_state = nullptr;
  // Transient named relations (i-diff / t-diff instances). Reads are free.
  std::map<std::string, const Relation*> transient;
  // Tables that received updates/deletes this round: CoalesceProbe nodes
  // avoiding one of these must take the fallback path (the cache/view copy
  // of their attributes may be stale mid-script). May be null.
  const std::set<std::string>* assist_unsafe_tables = nullptr;
};

// Evaluates `plan` to a materialized relation: lowers it against `ctx`'s
// stored schemas and transient bindings, builds the stored-table indexes
// it probes, then runs it. The plan must lower (LowerPlan): a missing table
// or column, or a ref `ctx` does not bind with the ref's columns, fails a
// check before any row is read. A pre-state table must already have the
// indexes its probes use. Never runs beside an epoch.
Relation Evaluate(const PlanPtr& plan, const EvalContext& ctx);

// Builds, charge-free, every stored-table index `plan` probes once lowered
// against `ctx`, and adds to `*pre_state` the tables it reads in pre-state
// with the columns it probes them on, so an engine can build both before
// its first epoch.
void EnsureProbedIndexes(const PlanPtr& plan, const EvalContext& ctx,
                         PreStateIndexes* pre_state);

}  // namespace idivm

#endif  // IDIVM_ALGEBRA_EVALUATOR_H_
