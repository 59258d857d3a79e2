// The ∆-script compiler: lowers a CompiledView's DeltaScript into a
// CompiledProgram (program.h) executed by the register VM (vm.h). Every
// decision that depends only on the script and the stored schemas — each
// compute step's physical plan (the same lowering Evaluate uses), diff-schema
// lookups, each APPLY's column offsets, each γ step's bindings, registers
// and recompute probe, step fusion, the indexes the program probes — is
// made once here. Compilation is total: a script binds every name it
// mentions, or it is rejected with a CorruptScriptError and never runs.

#ifndef IDIVM_EXEC_COMPILER_H_
#define IDIVM_EXEC_COMPILER_H_

#include <memory>

#include "src/core/compose.h"
#include "src/exec/program.h"
#include "src/robust/status.h"
#include "src/storage/database.h"

namespace idivm {
namespace exec {

// Compiles `view`'s script against the stored-table schemas in `db`. A
// compiled program observes idivm_compile_seconds and counts one
// idivm_program_cache_misses_total and its idivm_fused_steps_total.
StatusOr<std::shared_ptr<const CompiledProgram>> CompileProgram(
    const CompiledView& view, const Database& db);

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_COMPILER_H_
