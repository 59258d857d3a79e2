// A fluent builder for Q_SPJADU view definitions — sugar over the PlanNode
// factories, mirroring the SQL shapes the paper writes:
//
//   PlanPtr v = ViewBuilder(db)
//                   .From("parts")
//                   .NaturalJoin("devices_parts")
//                   .NaturalJoin("devices")
//                   .Where(Eq(Col("category"), Lit(Value("phone"))))
//                   .Select({"did", "pid", "price"})
//                   .Build();                      // Fig. 1b
//
//   PlanPtr vp = ViewBuilder(db)
//                    .From("parts")
//                    .NaturalJoin("devices_parts")
//                    .NaturalJoin("devices")
//                    .Where(Eq(Col("category"), Lit(Value("phone"))))
//                    .GroupBy({"did"}, {Sum(Col("price"), "cost")})
//                    .Build();                     // Fig. 5b

#ifndef IDIVM_ALGEBRA_VIEW_BUILDER_H_
#define IDIVM_ALGEBRA_VIEW_BUILDER_H_

#include <string>
#include <vector>

#include "src/algebra/plan.h"

namespace idivm {

// AggSpec shorthands.
AggSpec Sum(ExprPtr arg, std::string name);
AggSpec Count(std::string name);                  // COUNT(*)
AggSpec CountOf(ExprPtr arg, std::string name);   // COUNT(arg)
AggSpec Avg(ExprPtr arg, std::string name);
AggSpec Min(ExprPtr arg, std::string name);
AggSpec Max(ExprPtr arg, std::string name);

// Fluent construction of a view plan from a root table: joins, selections,
// projections and aggregation in query order; Build returns the plan.
class ViewBuilder {
 public:
  explicit ViewBuilder(const Database& db);

  // FROM <table> — starts the pipeline (must be the first call).
  ViewBuilder& From(const std::string& table);
  // FROM <table> AS alias: every column is exposed as "<alias>_<column>",
  // the self-join mechanism of the BSMA views.
  ViewBuilder& FromAliased(const std::string& table,
                           const std::string& alias);

  // NATURAL JOIN <table> on all shared column names.
  ViewBuilder& NaturalJoin(const std::string& table);
  // Θ-join with an explicit condition (columns must be globally unique).
  ViewBuilder& Join(const std::string& table, ExprPtr condition);
  ViewBuilder& JoinAliased(const std::string& table, const std::string& alias,
                           ExprPtr condition);
  // Join with another built pipeline.
  ViewBuilder& Join(PlanPtr right, ExprPtr condition);

  // WHERE: selections compose with AND.
  ViewBuilder& Where(ExprPtr predicate);

  // Generalized projection.
  ViewBuilder& Select(const std::vector<std::string>& columns);
  ViewBuilder& SelectItems(std::vector<ProjectItem> items);

  // Negation: keep rows with no φ-partner in `table` (⋉̄, Table 13).
  ViewBuilder& ExceptMatching(const std::string& table, ExprPtr condition);
  // Existence: keep rows with at least one φ-partner in `table` (⋉).
  ViewBuilder& KeepMatching(const std::string& table, ExprPtr condition);

  // Bag union with another pipeline; adds the branch column (footnote 2).
  ViewBuilder& UnionAllWith(PlanPtr right, const std::string& branch_column);

  // Grouping and aggregation (Q_SPJADU's γ).
  ViewBuilder& GroupBy(const std::vector<std::string>& group_columns,
                       std::vector<AggSpec> aggregates);

  // Finalizes the plan (the builder may not be reused afterwards).
  PlanPtr Build();

 private:
  const Database& db_;
  PlanPtr plan_;
};

}  // namespace idivm

#endif  // IDIVM_ALGEBRA_VIEW_BUILDER_H_
