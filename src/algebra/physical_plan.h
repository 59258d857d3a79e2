// Physical plans: the one implementation of every relational operator.
//
// A logical plan (plan.h) is lowered once, against the stored-table schemas
// and a set of transient bindings, into a flat tree of PlanOps. Lowering
// makes every decision the diff-driven loop plan of Section 6 needs — join
// and semijoin strategy, probe-key subsets, expression binding, column
// offsets — so running the result only moves rows and charges accesses.
// Lowering binds every name the plan mentions or fails: the result never
// resolves a name while it runs. Evaluate() (evaluator.h) lowers against
// its context and runs in one call; the ∆-script compiler (src/exec) lowers
// each compute step once per program and the register VM runs it every
// epoch.
//
// Strategy selection, in order (joins and semijoins alike): a transient
// (diff-only) left side driving keyed probes of a stored right side; a
// transient right side driving probes of a stored left side (⋈ and ⋉ only);
// a hash join over materialized inputs; a nested loop when the predicate has
// no equi conjuncts. Materializing fallbacks evaluate the transient side
// first, so an empty diff short-circuits without touching stored data.
// Probes with the same key are charged once ("retrieved once and reused" —
// Section 6.1's a<1 case).

#ifndef IDIVM_ALGEBRA_PHYSICAL_PLAN_H_
#define IDIVM_ALGEBRA_PHYSICAL_PLAN_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/evaluator.h"
#include "src/algebra/plan.h"
#include "src/expr/expr.h"
#include "src/robust/status.h"
#include "src/storage/database.h"

namespace idivm {

// One node of a keyed-probe path: a subtree that serves keyed lookups from
// stored hash indexes at its Scan leaves. Children index
// PhysicalPlan::probes.
struct ProbeOp {
  enum class Kind {
    kScan,      // stored hash-index lookup (post- or pre-state)
    kSelect,    // predicate filter over the child's probe result
    kProject,   // rename/projection; probes the child on inner columns
    kCoalesce,  // Section 9 view-assisted probe: primary, dedup, fallback
    kJoin,      // chained index nested loop through the join's equi keys
  };
  Kind kind = Kind::kScan;
  int child0 = -1;
  int child1 = -1;
  // kScan, kCoalesce (the avoided base table)
  int table_id = -1;
  bool pre_state = false;
  std::vector<size_t> key_cols;  // probe columns as table offsets
  // kSelect (child schema), kProject (every item, over the child schema)
  std::optional<BoundExpr> pred;
  std::vector<BoundExpr> exprs;
  // kCoalesce: the probe key cannot cover the base table's primary key.
  // The runtime half of the decision is the context's assist-unsafe set.
  bool static_unsafe = false;
  // kJoin
  bool first_is_left = false;
  std::vector<size_t> link_cols;      // equi columns in the first side
  std::optional<BoundExpr> residual;  // over left ++ right
};

// One node of a lowered relational expression. Children index
// PhysicalPlan::ops.
struct PlanOp {
  enum class Kind {
    kScan,            // stored full scan (post- or pre-state)
    kSlotRef,         // borrow a bound transient register (free)
    kEmptyRef,        // the minimizer's statically-empty "__empty*" ref
    kSelect,          // σ
    kProject,         // π
    kFilterProject,   // σ under π in one pass (the SPJ diff kernel)
    kUnionAll,        // bag union with branch attribute
    kJoinProbe,       // transient side driving probes of the stored side
    kJoinHash,        // hash join over materialized inputs
    kJoinNl,          // nested loop (no equi conjuncts)
    kSemiProbeLeft,   // transient left ⋉/⋉̄ stored right, via probes
    kSemiProbeRight,  // stored left ⋉ transient right, via probes
    kSemiHash,        // ⋉/⋉̄ hash fallback
    kSemiNl,          // ⋉/⋉̄ nested loop (no equi conjuncts)
    kAggregate,       // γ
  };
  Kind kind = Kind::kScan;
  int child0 = -1;
  int child1 = -1;
  Schema out_schema;
  // kScan
  int table_id = -1;
  bool pre_state = false;
  // kSlotRef
  int slot = -1;
  // kSelect / kFilterProject / kJoinNl / kSemiNl (the full predicate)
  std::optional<BoundExpr> pred;
  // kProject / kFilterProject
  std::vector<BoundExpr> exprs;
  // Joins and semijoins.
  std::optional<BoundExpr> residual;   // over left ++ right
  std::vector<size_t> lk_all;          // every equi-key offset, left side
  std::vector<size_t> rk_all;          // every equi-key offset, right side
  std::vector<size_t> probe_key_cols;  // probed equi keys, driving side
  std::vector<size_t> unprobed_keys;   // equi-key positions checked per row
  int probe_root = -1;                 // ProbeOp serving the stored side
  size_t left_ncols = 0;
  // Which input is transient-only: 0 = left (evaluated first; for
  // kJoinProbe, the driver), 1 = right, 2 = neither.
  int transient_first = 2;
  bool anti = false;
  // kAggregate
  std::vector<size_t> group_cols;
  std::vector<std::optional<BoundExpr>> agg_args;
  // kAggregate: its AggSpecs
  PlanPtr plan;
};

// A lowered plan: ops and probe paths over stored tables named by id. Every
// column offset, expression and register in it is bound; running it reads
// no name but the tables'.
struct PhysicalPlan {
  std::vector<PlanOp> ops;
  std::vector<ProbeOp> probes;
  std::vector<std::string> tables;  // stored tables, by table_id
  int root = -1;
};

// Binds a transient RelationRef while lowering: returns the register the
// ref reads and sets `*schema` to the bound relation's schema, or returns
// -1 when the name is unbound or bound with other columns, which fails the
// lowering.
using RefBinder = std::function<int(const PlanNode& ref, Schema* schema)>;

// Lowers `plan` against `db`'s stored schemas and the transients `bind`
// resolves. A plan that does not bind — a missing table or column, an
// unknown function, an unbound ref, clashing union or join schemas (see
// TryInferSchema) — is a CorruptScriptError.
StatusOr<PhysicalPlan> LowerPlan(const PlanPtr& plan, const Database& db,
                                 const RefBinder& bind);

// Stored-table indexes, each named by its table and column offsets.
using IndexSet = std::set<std::pair<std::string, std::vector<size_t>>>;

// Adds to `out` the index each probe-path scan leaf of `plan` reads, pre-
// state leaves included (an unchanged table serves its pre-state probes).
void CollectProbedIndexes(const PhysicalPlan& plan, IndexSet* out);

// Adds to `out` the stored tables `plan` reads in pre-state, with the
// columns its pre-state probe leaves look them up on.
void CollectPreStateIndexes(const PhysicalPlan& plan, PreStateIndexes* out);

// Runs `plan`. kSlotRef ops read `regs`; `ctx` supplies the stored tables,
// the pre-state tables and the assist-unsafe set. Each intermediate
// result is freed as soon as its parent has consumed it.
Relation RunPlan(const PhysicalPlan& plan, const EvalContext& ctx,
                 const Relation* const* regs);

}  // namespace idivm

#endif  // IDIVM_ALGEBRA_PHYSICAL_PLAN_H_
