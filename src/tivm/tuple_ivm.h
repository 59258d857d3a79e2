// Tuple-based IVM — the baseline idIVM is compared against (Sections 6-7).
//
// A tuple-based diff (t-diff) contains one diff tuple per view tuple to be
// modified, carrying the *entire* view tuple. Computing t-diffs therefore
// requires reconstructing complete view rows: a base-table change must be
// joined with all other relations in the view ("the tuple-based IVM has to
// perform all joins in order to compute the entire view tuples", Sec. 7.2).
//
// The implementation follows the classical algebraic rederivation scheme the
// paper's analysis models (Appendix A): for each modified base table R, the
// view rows derived from R's affected rows are recomputed twice — once
// against the pre-state, once against the post-state — with a diff-driven
// loop plan (the affected rows probe the other relations through their
// indexes, cost |D|·a). Keyed comparison of the two yields D−/Du/D+, which
// are applied through the view's key index (|D_V| lookups + accesses).
// Sequential mixed states (processed tables post, unprocessed pre) give the
// standard correctness guarantee for multi-table change sets.
//
// Aggregates are supported at the view root (γ over an SPJ subview, the
// exact shape analyzed in Section 6.2): per-group deltas are folded with the
// incremental function f∆ and applied additively; groups whose cardinality
// changes (and non-associative cases) are recomputed from base data — the
// tuple-based approach has no cache to consult (Sec. 6.2: "The tuple-based
// does not employ a cache, as it cannot benefit from it").

#ifndef IDIVM_TIVM_TUPLE_IVM_H_
#define IDIVM_TIVM_TUPLE_IVM_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/evaluator.h"
#include "src/algebra/plan.h"
#include "src/core/maintainer.h"
#include "src/diff/compaction.h"
#include "src/storage/database.h"

namespace idivm {

class TupleIvm {
 public:
  // Creates and materializes the view table `view_name` in `db`, and
  // builds every index its epochs probe, on stored and pre-state tables.
  TupleIvm(Database* db, const std::string& view_name, const PlanPtr& plan);

  const Schema& view_schema() const { return view_schema_; }
  const std::vector<std::string>& view_ids() const { return view_ids_; }

  // Runs tuple-based maintenance for the given net base-table changes.
  MaintainResult Maintain(
      const std::map<std::string, std::vector<Modification>>& net_changes);

 private:
  // Computes the (pre, post) affected view-row relations contributed by one
  // scan occurrence, using the sequential mixed-state discipline. Updates on
  // non-conditional attributes are rederived in a *single* pass (the
  // paper's Q_D of Fig. 2 computes price_old and price_new in one query):
  // the affected rows carry shadow pre-value columns through the plan.
  // Inserts, deletes and condition-affecting updates use two passes.
  void RederiveForOccurrence(
      size_t occurrence,
      const std::map<std::string, std::vector<Modification>>& net_changes,
      const std::map<std::string, Table*>& pre_state, Relation* out_pre,
      Relation* out_post);

  std::map<std::string, std::set<std::string>> conditional_attrs_;
  std::vector<bool> occurrence_supports_shadows_;

  Database* db_;
  std::string view_name_;
  PlanPtr plan_;       // ID-annotated full view plan
  PlanPtr spj_plan_;   // γ input when the root is an aggregate; else plan_
  bool root_aggregate_ = false;
  Schema view_schema_;
  std::vector<std::string> view_ids_;
  Schema spj_schema_;
  std::vector<std::string> spj_ids_;
  std::vector<const PlanNode*> scan_occurrences_;  // of spj_plan_
  // Root aggregate only: the group-by columns, and the recompute probe —
  // spj_plan_ semijoined with the affected group keys.
  Schema key_schema_;
  PlanPtr recompute_probe_;
  // One table per table a delta plan may read in pre-state (a later scan
  // occurrence of a changed table), refilled by each epoch that changed it.
  std::map<std::string, Table> pre_state_;
};

}  // namespace idivm

#endif  // IDIVM_TIVM_TUPLE_IVM_H_
