// Specialized γ-update kernels: the compiled program's replacement for the
// per-tuple Contribute() loop of core's AggregateExecutor.
//
// A kernel is built once per compiled program, per AggregateStep whose
// aggregate arguments are all plain column references (SUM(x), COUNT(x),
// COUNT(*), AVG(x) — the Q_SPJADU aggregate surface after compose). The
// AggregateBindings are folded in at build time, so the per-delta-tuple
// path has no virtual expression dispatch, no std::optional checks and no
// per-tuple schema lookups: group keys are gathered through precomputed
// offsets into a reused key buffer, and each aggregate folds via a direct
// row[offset] read. The fold is specialized by group-key arity (1, 2,
// generic) and by whether every payload column is statically numeric.
//
// Contract: a kernel's group-delta map must be bit-identical to the one
// the generic loop produces — same key order (GroupKeyLess map), same NULL
// handling, same double-accumulation order — because the map feeds the
// output diffs, whose contents and charges must not depend on which
// accumulator ran. Steps with
// non-column arguments get no kernel and fall back to the generic loop
// (counted by idivm_agg_kernel_misses_total).

#ifndef IDIVM_EXEC_AGG_KERNEL_H_
#define IDIVM_EXEC_AGG_KERNEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/aggregate_exec.h"
#include "src/core/delta_script.h"

namespace idivm {
namespace exec {

// One prebound aggregate slot of a kernel: COUNT(*) has no payload column;
// everything else reads exactly one.
struct AggKernelSpec {
  bool has_arg = false;
  size_t arg_col = 0;
  // Declared column type is int64/double: the fold can skip the per-value
  // numeric-type test (NULLs are still checked — they are value-level).
  bool statically_numeric = false;
};

// A compiled accumulation kernel for one AggregateStep (see file comment).
// Stateless after construction: Accumulate keeps all mutable state in
// locals and the caller's map, so one kernel instance serves every epoch
// of its cached program.
class AggKernel : public AggAccumulator {
 public:
  AggKernel(std::vector<size_t> group_cols, std::vector<AggKernelSpec> specs);

  void Accumulate(const Relation& rel, double sign,
                  GroupDeltaMap* deltas) override;

  // Human-readable signature, e.g. "g1/args:c3,*,c5/numeric" — used by
  // IDIVM_TRACE_STEPS step dumps.
  std::string Signature() const;

 private:
  // Arity 0 compiles the dynamic-arity fallback; 1 and 2 unroll the
  // group-key gather.
  template <size_t Arity>
  void FoldImpl(const Relation& rel, double sign, GroupDeltaMap* deltas);

  std::vector<size_t> group_cols_;
  std::vector<AggKernelSpec> specs_;
  bool all_numeric_ = false;
};

// Builds the kernel for `step` when every aggregate argument is a plain
// column reference resolvable in the step's input schema; returns nullptr
// (no kernel, generic loop) otherwise. `bindings` must be the prebound
// bindings the VM will run the step with.
std::unique_ptr<AggKernel> BuildAggKernel(const AggregateStep& step,
                                          const AggregateBindings& bindings);

}  // namespace exec
}  // namespace idivm

#endif  // IDIVM_EXEC_AGG_KERNEL_H_
