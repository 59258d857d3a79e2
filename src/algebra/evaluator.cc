#include "src/algebra/evaluator.h"

#include <vector>

#include "src/algebra/physical_plan.h"
#include "src/common/check.h"

namespace idivm {

IndexedRelation::IndexedRelation(Relation data, AccessStats* stats)
    : data_(std::move(data)), stats_(stats) {
  IDIVM_CHECK(stats_ != nullptr);
}

Relation IndexedRelation::ScanCounted() const {
  ChargeSink(stats_).tuple_reads += static_cast<int64_t>(data_.size());
  return data_;
}

const RowIndex& IndexedRelation::GetOrBuildIndex(
    const std::vector<size_t>& columns) const {
  std::lock_guard<std::mutex> lock(*index_mutex_);
  auto it = indexes_.find(columns);
  if (it == indexes_.end()) {
    // Building is free in the paper's model (indices are assumed to exist
    // at maintenance time).
    it = indexes_.emplace(columns, RowIndex(columns, data_.rows())).first;
  }
  return it->second;
}

std::vector<Row> IndexedRelation::Probe(const std::vector<size_t>& columns,
                                        const Row& key) const {
  const RowIndex& index = GetOrBuildIndex(columns);
  ++ChargeSink(stats_).index_lookups;
  std::vector<Row> out;
  index.ForEachMatch(data_.rows(), key, [&](size_t row_idx) {
    ++ChargeSink(stats_).tuple_reads;
    out.push_back(data_.rows()[row_idx]);
  });
  return out;
}

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

void EnsureProbedIndexes(const PlanPtr& plan, const EvalContext& ctx) {
  std::vector<const Relation*> regs;
  LowerWithIndexes(plan, ctx, &regs);
}

}  // namespace idivm
