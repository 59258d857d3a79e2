// The ∆-script compiler: lowers a CompiledView's DeltaScript into a
// CompiledProgram (program.h) executed by the register VM (vm.h). Every
// decision that depends only on the script and the stored schemas — each
// compute step's physical plan (the same lowering Evaluate uses), diff-schema
// lookups, each γ step's bindings, registers and recompute probe, step
// fusion — is made once here.
// Subtrees that cannot be bound at compile time (statically-unbound
// relation refs, scans of missing tables) lower to fallback ops that call
// Evaluate when they run.

#ifndef IDIVM_EXEC_COMPILER_H_
#define IDIVM_EXEC_COMPILER_H_

#include <memory>

#include "src/core/compose.h"
#include "src/exec/program.h"
#include "src/storage/database.h"

namespace idivm {
namespace exec {

// Compiles `view`'s script against the stored-table schemas in `db` and
// observes the idivm_compile_seconds / idivm_fused_steps_total metrics.
// Never fails.
std::shared_ptr<const CompiledProgram> CompileProgram(const CompiledView& view,
                                                      const Database& db);

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_COMPILER_H_
