// The register VM executing CompiledPrograms (program.h) — the only way a
// maintenance epoch runs. Slot registers hold transient relations;
// instructions run sequentially or over the rule-DAG conflict graph; every
// micro-op performs the full per-step bookkeeping — private StatsArena,
// fault and deadline sites, trace windows, undo capture, op-budget check.
// Compute steps run their physical plans through the same runner Evaluate
// uses (physical_plan.h), so the VM itself holds no relational operator.

#ifndef IDIVM_EXEC_VM_H_
#define IDIVM_EXEC_VM_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/evaluator.h"
#include "src/core/step_access.h"
#include "src/diff/compaction.h"
#include "src/diff/diff_instance.h"
#include "src/exec/program.h"
#include "src/obs/trace.h"
#include "src/robust/deadline.h"
#include "src/robust/epoch.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "src/storage/database.h"

namespace idivm {
namespace exec {

// Everything one epoch execution needs. All pointers are borrowed and must
// outlive the Execute call; `runs` must be sized to the program's step
// count (one record per original script step, merged by the maintainer in
// script order).
struct ExecEnv {
  Database* db = nullptr;
  const CompiledProgram* program = nullptr;
  // The epoch's routed input diffs (RouteInputs), one per program input.
  // Execute moves each into its register.
  std::vector<Relation>* inputs = nullptr;
  // The pre-state tables of the tables changed this epoch.
  const std::map<std::string, Table*>* pre_state = nullptr;
  const std::set<std::string>* assist_unsafe = nullptr;
  EpochUndo* undo = nullptr;
  FaultInjector* fault = nullptr;
  // Cooperative refresh deadline, checked at the same sites as `fault`.
  robust::Deadline* deadline = nullptr;
  int64_t max_epoch_ops = 0;
  int threads = 1;
  obs::TraceRecorder* trace = nullptr;
  const std::function<void(const std::string&, const DiffInstance&)>*
      apply_observer = nullptr;
  std::vector<StepRun>* runs = nullptr;
};

// Routes `net_changes` into one relation per program input, in
// CompiledProgram::inputs order, each row laid out as its register and
// rows in modification order (TableRoutes). Reads only column offsets; an
// update no update schema of its table covers fails a check.
std::vector<Relation> RouteInputs(
    const CompiledProgram& program,
    const std::map<std::string, std::vector<Modification>>& net_changes);

// Runs the program. On error the epoch's partial mutations are already in
// `undo`; the caller rolls back.
Status Execute(const ExecEnv& env);

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_VM_H_
