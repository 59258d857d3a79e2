// Execution of blocking γ-maintenance steps (AggregateStep), run by the
// ∆-script VM (src/exec): fold the step's row-granularity inputs into
// per-group deltas, then maintain the aggregate either incrementally
// (optionally through the SUM+COUNT operator cache, Table 12) or by
// per-group recompute (Table 7). Every name a step mentions is resolved
// once, when its program is compiled (BindAggregateStep); the executor
// reads its inputs from and writes its outputs to the VM's registers, so
// the γ semantics — and every stored-table charge — stay in src/core.

#ifndef IDIVM_CORE_AGGREGATE_EXEC_H_
#define IDIVM_CORE_AGGREGATE_EXEC_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/physical_plan.h"
#include "src/core/delta_script.h"
#include "src/expr/expr.h"
#include "src/robust/epoch.h"
#include "src/robust/status.h"
#include "src/storage/database.h"

namespace idivm {

// Everything an AggregateStep runs with, resolved before its first epoch.
// BindAggregateStep fills the name-derived part; the ∆-script compiler adds
// the registers and lowers the recompute probe (RecomputeProbePlan).
struct AggregateBindings {
  // One aggregate's argument: COUNT(*) reads nothing, a plain column is
  // read in place, anything else is evaluated.
  struct Arg {
    enum class Kind { kStar, kColumn, kExpr };
    Kind kind = Kind::kStar;
    size_t col = 0;                 // kColumn: offset in the input schema
    std::optional<BoundExpr> expr;  // kExpr: bound to the input schema
  };
  // One input's row-set registers; -1 for an image its type lacks.
  struct Input {
    int pre = -1;
    int post = -1;
  };

  std::vector<size_t> group_cols;   // offsets in the input schema
  Schema key_schema;                // the group-by columns
  std::vector<Arg> args;            // one per AggSpec
  bool has_expr_arg = false;        // some Arg is kExpr
  std::vector<DataType> out_types;  // declared output type per AggSpec
  const DiffSchema* update = nullptr;
  const DiffSchema* insert = nullptr;
  const DiffSchema* del = nullptr;
  // Operator-cache column offsets; empty when the step has no cache.
  std::vector<size_t> opcache_key_cols;
  std::vector<size_t> opcache_sum_cols;
  std::vector<size_t> opcache_cnt_cols;
  size_t opcache_count_col = 0;

  // Registers (compiler-assigned): per AggregateInput, the output diffs,
  // and the group keys the recompute probe reads.
  std::vector<Input> inputs;
  int out_update = -1;
  int out_insert = -1;
  int out_delete = -1;
  int keys = -1;
  PhysicalPlan probe;
};

// Resolves the step's names against its input and output schemas, `script`
// (output diff schemas) and `db` (the operator cache). Never aborts: a
// name it cannot resolve is a CorruptScriptError, which rejects the script
// when its program is compiled.
Status BindAggregateStep(const AggregateStep& step, const DeltaScript& script,
                         const Database& db, AggregateBindings* out);

// The recompute probe: the step's input post state semijoined with the
// affected group keys, bound as the relation ref `keys_name`.
PlanPtr RecomputeProbePlan(const AggregateStep& step,
                           const std::string& keys_name,
                           const Schema& key_schema);

// Executes one bound AggregateStep over the VM's register file `regs`.
// Charges stored-table accesses (opcache DML, the recompute probe);
// register reads are free.
class AggregateExecutor {
 public:
  // `undo` records opcache mutations; may be null (no capture). The probe
  // runs in `ctx` over `reg_ptrs`, the registers' addresses.
  AggregateExecutor(Database* db, EpochUndo* undo, const AggregateStep& step,
                    const AggregateBindings& bindings, Relation* regs,
                    const Relation* const* reg_ptrs, const EvalContext& ctx);

  // Writes the output diffs to their registers.
  Status Run();

 private:
  // Per-group accumulators, one slot per AggSpec: signed deltas for the
  // incremental rules, a group's post-state totals (and extremes) for
  // recompute.
  struct GroupAcc {
    int64_t rows = 0;              // Δ(group cardinality)
    std::vector<int64_t> nonnull;  // per spec: Δ(#non-null args)
    std::vector<double> sums;      // per spec: Σ arg_post − Σ arg_pre
    std::vector<Value> mins;       // recompute only
    std::vector<Value> maxs;
  };
  // Ordered by group key: iteration order defines output diff order.
  using GroupMap = std::map<Row, GroupAcc, RowLess>;

  // How RecomputeGroups emits diffs for groups that still exist.
  enum class EmitMode {
    // Deltas are exact: classify via count_pre into insert vs update; the
    // additive out_update schema forces absolute updates to be expressed as
    // delete+insert pairs.
    kClassifiedDeleteInsert,
    // Deltas may be inexact (general recompute): emit both an (absolute)
    // update and an insert for every surviving group — existing rows take
    // the update, missing rows the insert (NOT-IN guard), applied in
    // (-, u, +) order.
    kUpdateAndInsert,
  };

  // Folds `rel` into `groups` with `sign` (+1 post-images, −1 pre-images),
  // tracking MIN/MAX when `extremes`.
  void Fold(const Relation& rel, double sign, bool extremes,
            GroupMap* groups);
  static bool DeltaIsZero(const GroupAcc& d);
  Value Finalize(size_t k, double sum, int64_t nonnull, int64_t rows) const;
  void RunIncrementalDirect();
  Status RunIncrementalWithOpcache();
  // Recomputes the groups in the keys register from the input's post
  // state.
  void RecomputeGroups(EmitMode mode);

  Database* db_;
  EpochUndo* undo_;
  const AggregateStep& step_;
  const AggregateBindings& b_;
  Relation* regs_;
  const Relation* const* reg_ptrs_;
  const EvalContext& ctx_;

  Row key_;  // the fold's reused group-key buffer
  GroupMap deltas_;
  Relation update_;
  Relation insert_;
  Relation delete_;
};

}  // namespace idivm

#endif  // IDIVM_CORE_AGGREGATE_EXEC_H_
