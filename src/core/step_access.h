// Scheduler-facing analysis of ∆-script steps, computed once per program by
// the compiler (src/exec): which transients and stored tables a step
// touches, whether it is a blocking barrier, its cost-model phase and its
// stable label (fault sites, per-rule counters and trace spans are all
// keyed on the label). StepRun is the per-step execution record the VM
// fills and the maintainer merges single-threaded in script order.

#ifndef IDIVM_CORE_STEP_ACCESS_H_
#define IDIVM_CORE_STEP_ACCESS_H_

#include <cstdint>
#include <set>
#include <string>

#include "src/algebra/plan.h"
#include "src/core/delta_script.h"
#include "src/diff/apply.h"
#include "src/storage/access_stats.h"

namespace idivm {

// Transient relations a plan reads. The minimizer's statically-empty
// "__empty*" refs resolve without the context and are not reads.
void CollectTransientRefs(const PlanPtr& plan, std::set<std::string>* out);

// The scheduler-relevant footprint of one script step.
struct StepAccess {
  std::set<std::string> transient_reads;
  std::set<std::string> transient_writes;
  std::set<std::string> table_reads;
  std::set<std::string> table_writes;
  // Blocking γ steps merge every branch that reaches them and mutate the
  // shared transient store while running: they execute as barriers.
  bool exclusive = false;
  MaintPhase phase = MaintPhase::kDiffComputation;
  std::string label;

  // Folds another step's footprint into this one (fused instructions: the
  // union footprint keeps the DAG edges of every constituent step).
  void MergeFrom(const StepAccess& other);
};

// Computes the footprint, phase and label of one step.
StepAccess AnalyzeStep(const ScriptStep& step);

// True when the earlier step `a` must complete before `b` may start.
bool StepsConflict(const StepAccess& a, const StepAccess& b);

// Per-step execution record: every access charge lands in the step's
// private arena (no shared-counter writes while steps run), wall time and
// apply counters are per-step too. Everything is merged single-threaded,
// in script order, after execution — so the published counters cannot go
// backwards, double-count, or depend on the interleaving.
struct StepRun {
  StatsArena arena;
  double seconds = 0;
  ApplyResult applied;
  // Trace capture (filled only when tracing is on). start/end are on the
  // recorder's clock so the apply sub-window nests exactly.
  int tid = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t apply_start_us = 0;
  int64_t apply_end_us = 0;
  AccessStats apply_accesses;
  bool has_apply = false;
};

}  // namespace idivm

#endif  // IDIVM_CORE_STEP_ACCESS_H_
