// The base-table i-diff schema generator — Section 5 of the paper.
//
// A single base-table modification can be represented by i-diffs of many
// schemas (exponentially many subsets of post-state attributes), and each
// choice yields ∆-scripts of different efficiency. idIVM's insight: group
// base-table attributes by the operator conditions they participate in.
// For each operator op, C_op = the (non-key) base attributes referenced by
// op's condition (selection/join predicates; grouping attributes behave like
// conditions because they decide group membership). Attributes in no C_op
// form the non-conditional set NC. Per base table R(Ī, Ā) the generator
// emits:
//   - one insert schema  ∆+_R(Ī, Ā_post),
//   - one delete schema  ∆−_R(Ī, Ā_pre)   (full pre-state: "pre-state values
//     can lead only to a more efficient ∆-script"),
//   - one update schema per C_op group:  ∆u_R(Ī, Ā_pre, (Ā∩C_op)_post),
//   - one update schema for NC:          ∆u_R(Ī, Ā_pre, (Ā∩NC)_post).

#ifndef IDIVM_CORE_SCHEMA_GENERATOR_H_
#define IDIVM_CORE_SCHEMA_GENERATOR_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/id_inference.h"
#include "src/diff/diff_schema.h"

namespace idivm {

// (table, attribute) provenance of every output column of a plan node.
using ColumnOrigins =
    std::map<std::string, std::set<std::pair<std::string, std::string>>>;

// Provenance of the root's output columns (transitively through projections,
// joins, unions and aggregations).
ColumnOrigins ComputeProvenance(const PlanPtr& plan, const Database& db);

struct GeneratedDiffSchemas {
  // Per base table, in a deterministic order: insert, delete, updates.
  std::map<std::string, std::vector<DiffSchema>> per_table;

  // All schemas for one table (empty vector if the table is not mentioned).
  const std::vector<DiffSchema>& For(const std::string& table) const;
};

GeneratedDiffSchemas GenerateBaseDiffSchemas(const IdAnnotatedPlan& view,
                                             const Database& db);

// Per base table: the union of its conditional attributes (⋃ C_op) in
// `plan`. Used by the tuple-based baseline to recognize the paper's case (a)
// (updates on non-conditional attributes).
std::map<std::string, std::set<std::string>> ConditionalAttributes(
    const PlanPtr& plan, const Database& db);

}  // namespace idivm

#endif  // IDIVM_CORE_SCHEMA_GENERATOR_H_
