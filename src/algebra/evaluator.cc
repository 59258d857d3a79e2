#include "src/algebra/evaluator.h"

#include <vector>

#include "src/algebra/physical_plan.h"
#include "src/common/check.h"

namespace idivm {

namespace {

// Lowers `plan` against `ctx`, binding its transient refs to `*regs`, and
// builds the stored-table indexes the lowered plan probes.
PhysicalPlan LowerWithIndexes(const PlanPtr& plan, const EvalContext& ctx,
                              std::vector<const Relation*>* regs) {
  IDIVM_CHECK(ctx.db != nullptr, "EvalContext requires a database");
  const RefBinder bind = [&](const PlanNode& ref, Schema* schema) {
    const auto it = ctx.transient.find(ref.ref_name());
    if (it == ctx.transient.end() ||
        it->second->schema().ColumnNames() != ref.ref_schema().ColumnNames()) {
      return -1;
    }
    *schema = it->second->schema();
    regs->push_back(it->second);
    return static_cast<int>(regs->size()) - 1;
  };
  StatusOr<PhysicalPlan> physical = LowerPlan(plan, *ctx.db, bind);
  IDIVM_CHECK(physical.ok(), physical.status().message());
  IndexSet probed;
  CollectProbedIndexes(physical.value(), &probed);
  for (const auto& [table, columns] : probed) {
    ctx.db->GetTable(table).EnsureIndex(columns);
  }
  return std::move(physical).value();
}

}  // namespace

Relation Evaluate(const PlanPtr& plan, const EvalContext& ctx) {
  std::vector<const Relation*> regs;
  const PhysicalPlan physical = LowerWithIndexes(plan, ctx, &regs);
  return RunPlan(physical, ctx, regs.data());
}

void EnsureProbedIndexes(const PlanPtr& plan, const EvalContext& ctx,
                         PreStateIndexes* pre_state) {
  std::vector<const Relation*> regs;
  CollectPreStateIndexes(LowerWithIndexes(plan, ctx, &regs), pre_state);
}

}  // namespace idivm
