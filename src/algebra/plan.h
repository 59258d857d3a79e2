// Logical algebra plans for the paper's Q_SPJADU view-definition language
// (Section 2): Selection, generalized Projection (with functions), Join with
// arbitrary conditions, Grouping/Aggregation with associative functions,
// Antisemijoin (hence difference/negation) and Union (the special `union all`
// operator with a branch attribute b, footnote 2). SemiJoin exists because the
// i-diff propagation rules of Tables 6-13 are expressed with ⋉/⋉̄.
//
// Plans are immutable shared trees. Two leaf kinds exist besides table scans:
//   - RelationRef: a named transient relation (an i-diff/t-diff instance)
//     resolved from the evaluation context. Reading it is *not* charged to
//     the cost model — diffs are small, in-flight data in the paper's model.
//   - Scan: a stored table (base table, materialized view or cache). Every
//     access is charged. A Scan carries a state tag: kPost reads the current
//     (post-modification) table; kPre reads the reconstructed pre-state
//     (deferred IVM, Section 3).

#ifndef IDIVM_ALGEBRA_PLAN_H_
#define IDIVM_ALGEBRA_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/expr/expr.h"
#include "src/robust/status.h"
#include "src/storage/database.h"
#include "src/types/schema.h"

namespace idivm {

enum class PlanKind {
  kScan,          // stored table (base / view / cache)
  kRelationRef,   // transient named relation (diff instances)
  kSelect,        // σ
  kProject,       // generalized π (functions, renaming)
  kJoin,          // inner Θ-join, output = left columns ++ right columns
  kSemiJoin,      // ⋉ (left rows with a Θ-match on the right)
  kAntiSemiJoin,  // ⋉̄ (left rows with no Θ-match on the right)
  kUnionAll,      // bag union with branch attribute b (paper footnote 2)
  kAggregate,     // γ grouping + aggregation
  kMaterialize,   // barrier: child result becomes an in-memory intermediate
  // The Section 9 extension (insert i-diffs minimizing base accesses): a
  // keyed probe tries the `primary` access path (a cache/view projection,
  // whose rows carry the same attribute values by FD) and falls back to the
  // `fallback` base relation when the primary has no row for the key — "the
  // extended version of the algorithm has to find out dynamically at
  // run-time whether accesses are needed". As a plain relation it means the
  // fallback. Only sound when the probe key covers the fallback's key.
  kCoalesceProbe,
};

enum class StateTag { kPost, kPre };

enum class AggFunc { kSum, kCount, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc func);

// One output column of a generalized π: `expr` over the child, named.
struct ProjectItem {
  ExprPtr expr;
  std::string name;
};

// One aggregate of a γ: `func` over `arg`, output as column `name`.
struct AggSpec {
  AggFunc func = AggFunc::kSum;
  // Aggregated expression; null for COUNT(*) (row count).
  ExprPtr arg;
  std::string name;
};

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

// One immutable node of a logical plan; the accessors valid for a kind
// are grouped under it. Built only through the factories below.
class PlanNode {
 public:
  PlanKind kind() const { return kind_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  const PlanPtr& child(size_t i) const { return children_[i]; }

  // kScan
  const std::string& table_name() const { return table_name_; }
  StateTag state() const { return state_; }
  // kRelationRef
  const std::string& ref_name() const { return ref_name_; }
  const Schema& ref_schema() const { return ref_schema_; }
  // kSelect / kJoin / kSemiJoin / kAntiSemiJoin
  const ExprPtr& predicate() const { return predicate_; }
  // kProject
  const std::vector<ProjectItem>& project_items() const { return items_; }
  // kUnionAll
  const std::string& branch_column() const { return branch_column_; }
  // kAggregate
  const std::vector<std::string>& group_by() const { return group_by_; }
  const std::vector<AggSpec>& aggregates() const { return aggs_; }

  // ---- Factories ----
  static PlanPtr Scan(std::string table, StateTag state = StateTag::kPost);
  static PlanPtr RelationRef(std::string name, Schema schema);
  static PlanPtr Select(PlanPtr child, ExprPtr predicate);
  static PlanPtr Project(PlanPtr child, std::vector<ProjectItem> items);
  static PlanPtr Join(PlanPtr left, PlanPtr right, ExprPtr predicate);
  static PlanPtr SemiJoin(PlanPtr left, PlanPtr right, ExprPtr predicate);
  static PlanPtr AntiSemiJoin(PlanPtr left, PlanPtr right, ExprPtr predicate);
  static PlanPtr UnionAll(PlanPtr left, PlanPtr right,
                          std::string branch_column);
  static PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                           std::vector<AggSpec> aggs);
  // Evaluates the child once and treats the (small) result as an in-memory
  // relation. Delta queries use it so a diff-driven chain of index
  // nested-loop joins stays diff-driven across multiple joins (the paper's
  // diff-driven loop plan over R1, ..., Rn).
  static PlanPtr Materialize(PlanPtr child);
  // View-assisted probe (Section 9 extension): children = {primary,
  // fallback} with identical column names. `base_table` names the avoided
  // base table, so the executor can disable the primary path in rounds
  // where that table received updates/deletes (the primary could be stale
  // mid-script then).
  static PlanPtr CoalesceProbe(PlanPtr primary, PlanPtr fallback,
                               std::string base_table);

 private:
  PlanNode() = default;

  PlanKind kind_ = PlanKind::kScan;
  std::vector<PlanPtr> children_;
  std::string table_name_;
  StateTag state_ = StateTag::kPost;
  std::string ref_name_;
  Schema ref_schema_;
  ExprPtr predicate_;
  std::vector<ProjectItem> items_;
  std::string branch_column_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
};

// Infers an expression's result type under `schema` (best-effort static
// typing; NULL-typed where unknown). `expr` must pass CheckExpr.
DataType TypeOfExpr(const ExprPtr& expr, const Schema& schema);

// Computes the output schema of `plan`; Scans resolve against `db`. Checks
// structural validity — every scanned table exists, every expression
// passes CheckExpr, column names stay unique, union and coalesce inputs
// agree — and returns the first violation as a CorruptScriptError.
StatusOr<Schema> TryInferSchema(const PlanPtr& plan, const Database& db);

// TryInferSchema for plans valid by construction; aborts on a violation.
Schema InferSchema(const PlanPtr& plan, const Database& db);

// ---- Convenience builders ----

// π that keeps the named columns unchanged.
PlanPtr ProjectColumns(PlanPtr child, const std::vector<std::string>& names);

// Natural join on all shared column names, desugared to rename + Θ-join +
// projection that keeps each shared column once (from the left input).
// Needs `db` to resolve the children's schemas.
PlanPtr NaturalJoin(PlanPtr left, PlanPtr right, const Database& db);

// Returns all Scan nodes in the plan (pre-order).
std::vector<const PlanNode*> CollectScans(const PlanPtr& plan);

// True iff no node of the subtree reads stored tables (only RelationRefs and
// pure operators) — such subtrees are "free" in the cost model.
bool IsTransientOnly(const PlanPtr& plan);

}  // namespace idivm

#endif  // IDIVM_ALGEBRA_PLAN_H_
