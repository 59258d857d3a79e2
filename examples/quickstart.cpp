// Quickstart — the paper's running example (Figs. 1 and 2).
//
// Builds the electronic-device database, defines the SPJ view
//
//   CREATE VIEW V AS SELECT did, pid, price
//   FROM parts NATURAL JOIN devices_parts NATURAL JOIN devices
//   WHERE category = 'phone'
//
// compiles it with idIVM, updates P1's price from 10 to 11 (Example 1.1)
// and maintains the view incrementally, printing the i-diffs, the ∆-script
// and the access counts along the way.

#include <cstdio>

#include "src/common/check.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"

using namespace idivm;

int main() {
  Database db;

  // ---- Base tables (Fig. 2, initial database instance) ----
  Table& parts = db.CreateTable(
      "parts",
      Schema({{"pid", DataType::kString}, {"price", DataType::kDouble}}),
      {"pid"});
  parts.BulkLoadUncounted(Relation(
      parts.schema(),
      {{Value("P1"), Value(10.0)}, {Value("P2"), Value(20.0)}}));

  Table& devices = db.CreateTable(
      "devices",
      Schema({{"did", DataType::kString}, {"category", DataType::kString}}),
      {"did"});
  devices.BulkLoadUncounted(Relation(
      devices.schema(),
      {{Value("D1"), Value("phone")}, {Value("D2"), Value("phone")},
       {Value("D3"), Value("tablet")}}));

  Table& dp = db.CreateTable(
      "devices_parts",
      Schema({{"did", DataType::kString}, {"pid", DataType::kString}}),
      {"did", "pid"});
  dp.BulkLoadUncounted(Relation(
      dp.schema(),
      {{Value("D1"), Value("P1")}, {Value("D2"), Value("P1")},
       {Value("D1"), Value("P2")}}));

  // ---- View definition (Fig. 1b), as an algebra plan ----
  PlanPtr plan = NaturalJoin(PlanNode::Scan("parts"),
                             PlanNode::Scan("devices_parts"), db);
  plan = NaturalJoin(
      std::move(plan),
      PlanNode::Select(PlanNode::Scan("devices"),
                       Eq(Col("category"), Lit(Value("phone")))),
      db);
  plan = ProjectColumns(std::move(plan), {"did", "pid", "price"});

  // ---- View definition time: compile & materialize ----
  Maintainer maintainer(&db, CompileView("V", plan, db));
  std::printf("Initial view V (Fig. 2):\n%s\n",
              db.GetTable("V").SnapshotUncounted().Sorted().ToString()
                  .c_str());

  std::printf("Generated base-table i-diff schemas (Section 5):\n");
  for (const InputDiffBinding& binding : maintainer.view().input_bindings) {
    std::printf("%s\n", binding.schema.ToString().c_str());
  }
  std::printf("\n");
  std::printf("∆-script:\n%s\n", maintainer.view().script.ToString().c_str());

  // ---- Data modification time: Example 1.1 ----
  ModificationLogger logger(&db);
  IDIVM_CHECK(logger.Update("parts", {Value("P1")}, {"price"},
                            {Value(11.0)}),
              "part P1 exists");
  std::printf("Applied: UPDATE parts SET price = 11 WHERE pid = 'P1'\n");
  std::printf("The i-diff ∆u_parts has ONE tuple; the equivalent t-diff "
              "D_u_V needs one tuple per view row (here: two).\n\n");

  // ---- View maintenance time ----
  db.stats().Reset();
  const MaintainResult result = maintainer.Maintain(logger.NetChanges());
  std::printf("Maintenance cost (Section 6 units):\n%s\n\n",
              result.ToString().c_str());
  std::printf("Maintained view:\n%s\n",
              db.GetTable("V").SnapshotUncounted().Sorted().ToString()
                  .c_str());
  return 0;
}
