// Pass 3 of the ∆-script generator (Section 4): compose the instantiated
// operator rules into an executable ∆-script, deciding intermediate caches
// along the way, then materialize the view (and caches) in the database.
//
// Composition walks the ID-annotated plan bottom-up. Base-table scans
// contribute the generated i-diff schemas (input bindings, filled from the
// net changes at maintenance time); every other operator instantiates
// its propagation rules against the diffs arriving from below. Below each
// aggregation operator an intermediate cache is materialized (Ex. 4.6); the
// incoming diffs are applied to it with RETURNING so the blocking γ rules
// receive row-granularity changes for free (Appendix A.2). The view itself
// serves as the "second cache" above a root aggregate (Ex. 4.6).

#ifndef IDIVM_CORE_COMPOSE_H_
#define IDIVM_CORE_COMPOSE_H_

#include <string>
#include <vector>

#include "src/core/delta_script.h"
#include "src/core/id_inference.h"
#include "src/core/rule_dag.h"
#include "src/core/rules.h"
#include "src/core/schema_generator.h"

namespace idivm {

struct CompilerOptions {
  // Pass 4: semantic minimization of the composed delta queries (Fig. 8).
  bool minimize = true;
  // Materialize an intermediate cache below each aggregation whose input is
  // not already a stored table (Section 4 / footnote 6).
  bool use_caches = true;
  // Use the blocking incremental γ rules for sum/count/avg (Tables 9/11/12);
  // otherwise the general recompute rule (Table 7) is used everywhere.
  bool specialized_aggregate_rules = true;
  // The Section 9 extension: insert-diff delta queries probe the
  // intermediate cache for base-table attributes before touching the base
  // table itself, deciding dynamically at run time whether base accesses
  // are needed. Off by default (matches the published system).
  bool view_assisted_inserts = false;
  // Accounting only: by default materializing the view and its caches is
  // free (view-definition time is outside the Section 6 cost model) and the
  // database counters are reset afterwards. Recovery's recompute fallback
  // sets this so a restart-time rematerialization is charged like any other
  // access (bench_recovery's recompute column).
  bool charge_materialization = false;
  RuleOptions rules;
};

// A base-table i-diff the script expects as input, which epoch setup fills
// from the net changes of its table (exec::RouteInputs).
struct InputDiffBinding {
  std::string name;         // transient relation name in the script
  std::string table;        // base table the diff describes
  DiffSchema schema;
};

struct CompiledView {
  std::string view_name;
  PlanPtr plan;                        // ID-annotated plan
  std::vector<std::string> view_ids;   // key of the materialized view
  Schema view_schema;
  std::vector<InputDiffBinding> input_bindings;
  DeltaScript script;
  RuleDag dag;
  std::vector<std::string> cache_tables;  // intermediate + operator caches
  CompilerOptions options;
};

// Compiles `plan` into a ∆-script and materializes the view as table
// `view_name` (plus any caches) in `db` from the current base data.
CompiledView CompileView(const std::string& view_name, const PlanPtr& plan,
                         Database& db, const CompilerOptions& options = {});

}  // namespace idivm

#endif  // IDIVM_CORE_COMPOSE_H_
