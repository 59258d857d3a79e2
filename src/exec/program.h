// Compiled ∆-script programs: the data structures produced by the
// ScriptCompiler (compiler.h) and executed by the register VM (vm.h).
//
// A CompiledProgram lowers a DeltaScript into a flat instruction list over
// slot registers (one per transient relation name). Everything that depends
// only on the script and the stored schemas — each input diff's register
// and column offsets, each compute step's physical plan (physical_plan.h),
// diff-schema lookups, each γ step's bindings and recompute probe, each
// APPLY's column offsets, step labels and footprints, and the stored-table
// and pre-state indexes it probes — is resolved once, when the maintainer
// is built. A script that does not compile completely has no program.

#ifndef IDIVM_EXEC_PROGRAM_H_
#define IDIVM_EXEC_PROGRAM_H_

#include <map>
#include <string>
#include <vector>

#include "src/algebra/physical_plan.h"
#include "src/core/aggregate_exec.h"
#include "src/core/delta_script.h"
#include "src/core/step_access.h"
#include "src/diff/apply.h"

namespace idivm {
namespace exec {

// One diff a kApply micro-op writes: the op's main diff first, then each
// compose-time-merged extra, in order, into the same RETURNING capture.
struct ApplyDiffOp {
  const DiffSchema* schema = nullptr;
  int in_slot = -1;
  ApplyBinding binding;  // its columns in the target table
};

// One unit of per-step work inside an instruction. Every micro-op keeps the
// originating script-step index so per-rule arenas, labels, trace spans and
// fault sites stay per original step — fusion changes data flow, never
// observability.
struct MicroOp {
  enum class Kind { kCompute, kApply, kAggregate };
  Kind kind = Kind::kCompute;
  size_t step = 0;  // original script-step index
  // kCompute
  PhysicalPlan plan;
  int out_slot = -1;
  const DiffSchema* out_diff = nullptr;  // null for a raw relation
  bool fuse_to_next = false;   // pipe the output to the next micro-op
  bool publish_output = true;  // false when fused and nothing else reads it
  // kApply
  bool piped_input = false;  // the main diff's rows are the piped ones
  std::string target;        // the APPLY's stored table
  std::vector<ApplyDiffOp> diffs;
  bool capture = false;
  int pre_slot = -1;
  int post_slot = -1;
  // kAggregate
  const AggregateStep* agg = nullptr;
  AggregateBindings bindings;
};

// Where epoch setup puts one input diff's rows: its register, and the
// offsets in its base table of its id, pre and post columns. An update
// input also names its post set among its table's (TableRoutes).
struct InputRoute {
  int slot = -1;
  DiffType type = DiffType::kInsert;
  int post_set = -1;
  std::vector<size_t> id_cols;
  std::vector<size_t> pre_cols;
  std::vector<size_t> post_cols;
};

// One base table's inputs, as indexes into CompiledProgram::inputs, and
// the distinct post sets of its update inputs, both in binding order. An
// insert or a delete goes to every input of its kind; an update to every
// input of the narrowest post set covering the columns it changed (the
// first on a tie), so each update i-diff's unchanged attributes really
// are unchanged.
struct TableRoutes {
  std::vector<size_t> inputs;
  std::vector<std::vector<size_t>> update_posts;
};

// One schedulable unit: a maximal fused run of micro-ops. Its footprint is
// the union of the member steps' footprints, so the DAG scheduler keeps
// every edge the unfused steps had.
struct Instruction {
  std::vector<MicroOp> ops;
  StepAccess access;
};

// A fully lowered ∆-script. The program owns a copy of the script; every
// pointer in its ops (diff schemas, aggregate steps) points into that copy.
// Stored tables are referenced by name and resolved to handles while an
// epoch runs, so a program never holds stale Table pointers.
struct CompiledProgram {
  CompiledProgram() = default;
  CompiledProgram(const CompiledProgram&) = delete;
  CompiledProgram& operator=(const CompiledProgram&) = delete;

  std::string view_name;
  DeltaScript script;  // owned; internal pointers target this copy

  struct SlotDef {
    std::string name;
    Schema schema;
  };
  std::vector<SlotDef> slots;

  // Per input binding, in binding order, and per base table the bindings
  // describe: how epoch setup routes net changes into registers.
  std::vector<InputRoute> inputs;
  std::map<std::string, TableRoutes> input_tables;

  // Per original script step: its label (fault sites, per-rule counters,
  // spans), cost-model phase and footprint.
  std::vector<StepAccess> steps;
  std::vector<Instruction> instructions;

  // Every index the program probes — compute-plan and γ recompute-probe
  // leaves, update/delete APPLY match columns, γ operator-cache keys —
  // built by the maintainer, so an epoch never creates one.
  IndexSet indexes;
  // The stored tables its plans read in pre-state, each with the columns
  // its pre-state leaves probe, built on the maintainer's pre-state tables.
  PreStateIndexes pre_state;

  int64_t fused_steps = 0;  // steps.size() - instructions.size()
};

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_PROGRAM_H_
