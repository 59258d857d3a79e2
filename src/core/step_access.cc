#include "src/core/step_access.h"

namespace idivm {

void CollectTransientRefs(const PlanPtr& plan, std::set<std::string>* out) {
  if (plan == nullptr) return;
  if (plan->kind() == PlanKind::kRelationRef &&
      plan->ref_name().rfind("__empty", 0) != 0) {
    out->insert(plan->ref_name());
  }
  for (const PlanPtr& child : plan->children()) {
    CollectTransientRefs(child, out);
  }
}

namespace {

// Stored tables a plan may read (Scan leaves in either state; CoalesceProbe
// children are ordinary subplans and are covered by their own Scans).
void CollectScanTables(const PlanPtr& plan, std::set<std::string>* out) {
  if (plan == nullptr) return;
  if (plan->kind() == PlanKind::kScan) out->insert(plan->table_name());
  for (const PlanPtr& child : plan->children()) {
    CollectScanTables(child, out);
  }
}

}  // namespace

void StepAccess::MergeFrom(const StepAccess& other) {
  transient_reads.insert(other.transient_reads.begin(),
                         other.transient_reads.end());
  transient_writes.insert(other.transient_writes.begin(),
                          other.transient_writes.end());
  table_reads.insert(other.table_reads.begin(), other.table_reads.end());
  table_writes.insert(other.table_writes.begin(), other.table_writes.end());
  exclusive |= other.exclusive;
}

StepAccess AnalyzeStep(const ScriptStep& step) {
  StepAccess access;
  if (step.compute.has_value()) {
    const ComputeDiffStep& cs = *step.compute;
    CollectTransientRefs(cs.query, &access.transient_reads);
    CollectScanTables(cs.query, &access.table_reads);
    access.transient_writes.insert(cs.out_name);
    access.phase = MaintPhase::kDiffComputation;
    access.label = "compute " + cs.out_name;
  } else if (step.apply.has_value()) {
    const ApplyStep& as = *step.apply;
    access.transient_reads.insert(as.diff_name);
    std::string diffs = as.diff_name;
    for (const std::string& extra : as.extra_diff_names) {
      access.transient_reads.insert(extra);
      diffs += "+" + extra;
    }
    access.table_writes.insert(as.target_table);
    if (!as.returning_pre.empty()) {
      access.transient_writes.insert(as.returning_pre);
    }
    if (!as.returning_post.empty()) {
      access.transient_writes.insert(as.returning_post);
    }
    access.phase = as.phase;
    access.label = "apply " + diffs + " -> " + as.target_table;
  } else if (step.aggregate.has_value()) {
    access.exclusive = true;
    access.phase = MaintPhase::kDiffComputation;
    access.label = "γ-maintain " + step.aggregate->node_name;
  }
  return access;
}

namespace {

bool Intersect(const std::set<std::string>& a,
               const std::set<std::string>& b) {
  for (const std::string& name : a) {
    if (b.count(name) > 0) return true;
  }
  return false;
}

}  // namespace

bool StepsConflict(const StepAccess& a, const StepAccess& b) {
  if (a.exclusive || b.exclusive) return true;
  return Intersect(a.transient_writes, b.transient_reads) ||  // produce/use
         Intersect(a.transient_writes, b.transient_writes) ||  // rebind
         Intersect(a.transient_reads, b.transient_writes) ||   // anti-dep
         Intersect(a.table_writes, b.table_reads) ||
         Intersect(a.table_writes, b.table_writes) ||  // APPLYs per target
         Intersect(a.table_reads, b.table_writes);
}

}  // namespace idivm
