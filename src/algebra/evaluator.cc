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

const IndexedRelation::LazyIndex& IndexedRelation::GetOrBuildIndex(
    const std::vector<size_t>& columns) const {
  std::lock_guard<std::mutex> lock(*index_mutex_);
  auto it = indexes_.find(columns);
  if (it == indexes_.end()) {
    // Build the index once; building is free in the paper's model (indices
    // are assumed to exist at maintenance time).
    LazyIndex index;
    for (size_t i = 0; i < data_.rows().size(); ++i) {
      index[HashRowKey(data_.rows()[i], columns)].push_back(i);
    }
    it = indexes_.emplace(columns, std::move(index)).first;
  }
  return it->second;
}

std::vector<Row> IndexedRelation::Probe(const std::vector<size_t>& columns,
                                        const Row& key) const {
  const LazyIndex& index = GetOrBuildIndex(columns);
  ++ChargeSink(stats_).index_lookups;
  std::vector<Row> out;
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : key) {
    h ^= v.Hash();
    h *= 0x100000001b3ULL;
  }
  const auto bucket = index.find(h);
  if (bucket == index.end()) return out;
  for (size_t row_idx : bucket->second) {
    const Row& row = data_.rows()[row_idx];
    bool match = true;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (row[columns[i]].Compare(key[i]) != 0) {
        match = false;
        break;
      }
    }
    if (match) {
      ++ChargeSink(stats_).tuple_reads;
      out.push_back(row);
    }
  }
  return out;
}

Relation Evaluate(const PlanPtr& plan, const EvalContext& ctx) {
  IDIVM_CHECK(ctx.db != nullptr, "EvalContext requires a database");
  std::vector<const Relation*> regs;
  const RefBinder bind = [&](const PlanNode& ref, Schema* schema) {
    const auto it = ctx.transient.find(ref.ref_name());
    if (it == ctx.transient.end() ||
        it->second->schema().ColumnNames() != ref.ref_schema().ColumnNames()) {
      return -1;
    }
    *schema = it->second->schema();
    regs.push_back(it->second);
    return static_cast<int>(regs.size()) - 1;
  };
  const StatusOr<PhysicalPlan> physical = LowerPlan(plan, *ctx.db, bind);
  IDIVM_CHECK(physical.ok(), physical.status().message());
  return RunPlan(physical.value(), ctx, regs.data());
}

}  // namespace idivm
