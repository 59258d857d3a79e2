// Execution of blocking γ-maintenance steps (AggregateStep), run by the
// ∆-script VM (src/exec): accumulate per-group deltas from the step's
// row-granularity inputs, then maintain the aggregate either incrementally
// (optionally through the SUM+COUNT operator cache, Table 12) or by
// per-group recompute (Table 7). The executor reads inputs and publishes
// outputs through a TransientAccess (the VM's register file), so the γ
// semantics — and every stored-table charge — stay in src/core.

#ifndef IDIVM_CORE_AGGREGATE_EXEC_H_
#define IDIVM_CORE_AGGREGATE_EXEC_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/delta_script.h"
#include "src/diff/diff_instance.h"
#include "src/expr/expr.h"
#include "src/robust/epoch.h"
#include "src/robust/status.h"
#include "src/storage/database.h"

namespace idivm {

// How the γ executor reaches the VM's transient store: read an input
// row set, publish an output diff, and evaluate a recompute probe plan with
// a scratch relation temporarily bound under a reserved name.
class TransientAccess {
 public:
  virtual ~TransientAccess() = default;

  // The relation bound to `name`, or nullptr when unbound.
  virtual const Relation* Find(const std::string& name) = 0;

  // Binds `name` to `rel` (rebinding an existing name).
  virtual void Publish(const std::string& name, Relation rel) = 0;

  // Evaluates `plan` with `scratch_name` bound to `scratch` for the
  // duration of the call only.
  virtual Relation EvaluateScoped(const PlanPtr& plan,
                                  const std::string& scratch_name,
                                  const Relation& scratch) = 0;
};

// Compile-time-resolvable bindings of an AggregateStep: group-by column
// offsets, argument expressions bound to the input schema, output diff
// schemas, and (when the operator cache exists) the cache's column offsets.
// The compiler builds them once per program; Run() binds them itself when
// they could not be prebound.
struct AggregateBindings {
  std::vector<size_t> group_cols;
  std::vector<std::optional<BoundExpr>> args;
  const DiffSchema* update = nullptr;
  const DiffSchema* insert = nullptr;
  const DiffSchema* del = nullptr;
  // Operator-cache column offsets; valid only when `has_opcache`.
  bool has_opcache = false;
  std::vector<size_t> opcache_key_cols;
  std::vector<size_t> opcache_sum_cols;
  std::vector<size_t> opcache_cnt_cols;
  size_t opcache_count_col = 0;
};

// Resolves the step's bindings against `script` (output diff schemas) and
// `db` (operator-cache schema). Fails with the
// "aggregate output diffs not registered" error when an output diff is
// missing, so a compile-time bind failure reproduces the runtime one.
Status BindAggregateStep(const AggregateStep& step, const DeltaScript& script,
                         const Database& db, AggregateBindings* out);

// Per-group accumulated deltas for the incremental γ rules. Equal-length
// vectors, one slot per AggSpec of the step.
struct GroupDelta {
  std::vector<double> sum_delta;       // per spec: Σ arg_post − Σ arg_pre
  std::vector<int64_t> nonnull_delta;  // per spec: Δ(#non-null args)
  int64_t row_delta = 0;               // Δ(group cardinality)
};

// Total order on group keys; the map's iteration order defines output diff
// order, so every accumulation path must use it.
struct GroupKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) < 0;
  }
};

using GroupDeltaMap = std::map<Row, GroupDelta, GroupKeyLess>;

// A compiled drop-in for the per-tuple Contribute() loop: folds a whole
// input relation into the group-delta map with one virtual call per
// relation instead of per tuple. Implementations (src/exec's specialized
// γ kernels) must produce deltas bit-identical to Contribute() — same
// key projection, same NULL handling, same accumulation order within the
// relation — because the map contents feed the byte-compared output diffs.
class AggAccumulator {
 public:
  virtual ~AggAccumulator() = default;

  // Folds `rel` into `deltas` with `sign` (+1 post-images, −1 pre-images).
  virtual void Accumulate(const Relation& rel, double sign,
                          GroupDeltaMap* deltas) = 0;
};

// Executes one AggregateStep against `transients`. Charges stored-table
// accesses (opcache DML, recompute probe plans); transient reads are free.
class AggregateExecutor {
 public:
  AggregateExecutor(Database* db, const AggregateStep& step,
                    TransientAccess* transients)
      : db_(db), step_(step), transients_(transients) {}

  // Output-diff schema lookup for runtime binding (ignored when prebound
  // bindings are supplied).
  void set_script(const DeltaScript* script) { script_schema_lookup_ = script; }
  // Undo log for opcache mutations; may be null (no capture).
  void set_undo(EpochUndo* undo) { undo_ = undo; }
  // Prebound bindings from BindAggregateStep; when null, Run() binds from
  // the script at runtime.
  void set_bindings(const AggregateBindings* bindings) {
    prebound_ = bindings;
  }
  // Specialized accumulation kernel; when null, the generic per-tuple
  // Contribute() loop runs.
  void set_accumulator(AggAccumulator* accumulator) {
    accumulator_ = accumulator;
  }

  Status Run();

 private:
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

  Status Rows(const std::string& name, const Relation** out);
  Status BindSpecs();
  void Contribute(const Row& row, double sign);
  // One input relation through the kernel (when set) or Contribute().
  void Fold(const Relation& rel, double sign);
  Status AccumulateDeltas();
  bool DeltaIsZero(const GroupDelta& d) const;
  Value Finalize(size_t k, double sum, int64_t nonnull, int64_t rows);
  void RunIncrementalDirect();
  Status RunIncrementalWithOpcache();
  void RunRecompute();
  void RecomputeGroups(const std::vector<Row>& keys, EmitMode mode);
  void EmitOutputs();

  Database* db_;
  const AggregateStep& step_;
  TransientAccess* transients_;
  const DeltaScript* script_schema_lookup_ = nullptr;
  EpochUndo* undo_ = nullptr;
  const AggregateBindings* prebound_ = nullptr;
  AggAccumulator* accumulator_ = nullptr;

  // Runtime-bound storage (used when `prebound_` is null).
  AggregateBindings runtime_bindings_;
  // The active bindings: `prebound_` or `&runtime_bindings_`.
  const AggregateBindings* bindings_ = nullptr;
  GroupDeltaMap deltas_;
  std::unique_ptr<DiffInstance> update_;
  std::unique_ptr<DiffInstance> insert_;
  std::unique_ptr<DiffInstance> delete_;
};

}  // namespace idivm

#endif  // IDIVM_CORE_AGGREGATE_EXEC_H_
