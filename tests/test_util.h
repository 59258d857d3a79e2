// Shared helpers for idIVM tests: the Fig. 1/2 toy database, view
// recomputation, IVM-vs-recompute assertions and damaged ∆-scripts.

#ifndef IDIVM_TESTS_TEST_UTIL_H_
#define IDIVM_TESTS_TEST_UTIL_H_

#include <stdlib.h>

#include <filesystem>
#include <map>
#include <string>

#include "gtest/gtest.h"
#include "src/algebra/evaluator.h"
#include "src/algebra/plan.h"
#include "src/common/check.h"
#include "src/core/compose.h"
#include "src/core/script_io.h"
#include "src/storage/database.h"

namespace idivm::testing {

// Loads the paper's running-example instance (Fig. 2):
//   parts:          (P1, 10), (P2, 20), (P3, 20)
//   devices:        (D1, phone), (D2, phone), (D3, tablet)
//   devices_parts:  (D1,P1), (D2,P1), (D1,P2), (D3,P2)
// (P3 exists but is unused — the overestimation example of Sec. 1; D3/P2
// exercises the failing selection.)
inline void LoadRunningExample(Database* db) {
  Table& parts = db->CreateTable(
      "parts",
      Schema({{"pid", DataType::kString}, {"price", DataType::kDouble}}),
      {"pid"});
  parts.BulkLoadUncounted(Relation(
      parts.schema(),
      {{Value("P1"), Value(10.0)}, {Value("P2"), Value(20.0)},
       {Value("P3"), Value(20.0)}}));

  Table& devices = db->CreateTable(
      "devices",
      Schema({{"did", DataType::kString}, {"category", DataType::kString}}),
      {"did"});
  devices.BulkLoadUncounted(Relation(
      devices.schema(),
      {{Value("D1"), Value("phone")}, {Value("D2"), Value("phone")},
       {Value("D3"), Value("tablet")}}));

  Table& dp = db->CreateTable(
      "devices_parts",
      Schema({{"did", DataType::kString}, {"pid", DataType::kString}}),
      {"did", "pid"});
  dp.BulkLoadUncounted(Relation(
      dp.schema(),
      {{Value("D1"), Value("P1")}, {Value("D2"), Value("P1")},
       {Value("D1"), Value("P2")}, {Value("D3"), Value("P2")}}));
}

// The Fig. 1b SPJ view over the running example.
inline PlanPtr RunningExampleSpjPlan(const Database& db) {
  PlanPtr plan = NaturalJoin(PlanNode::Scan("parts"),
                             PlanNode::Scan("devices_parts"), db);
  plan = NaturalJoin(
      std::move(plan),
      PlanNode::Select(PlanNode::Scan("devices"),
                       Eq(Col("category"), Lit(Value("phone")))),
      db);
  return ProjectColumns(std::move(plan), {"did", "pid", "price"});
}

// The Fig. 5b aggregate view.
inline PlanPtr RunningExampleAggPlan(const Database& db) {
  return PlanNode::Aggregate(RunningExampleSpjPlan(db), {"did"},
                             {{AggFunc::kSum, Col("price"), "cost"}});
}

// Recomputes `plan` from the current base tables without charging accesses.
inline Relation Recompute(Database* db, const PlanPtr& plan) {
  const AccessStats saved = db->stats();
  EvalContext ctx;
  ctx.db = db;
  Relation out = Evaluate(plan, ctx);
  db->stats() = AccessStats();
  db->stats() += saved;
  return out;
}

// Asserts the materialized `view_table` equals recomputing `plan`.
inline void ExpectViewMatchesRecompute(Database* db, const PlanPtr& plan,
                                       const std::string& view_table,
                                       const std::string& context = "") {
  const Relation expected = Recompute(db, plan);
  const Relation actual = db->GetTable(view_table).SnapshotUncounted();
  EXPECT_TRUE(actual.BagEquals(expected))
      << context << "\nexpected (recomputed):\n"
      << expected.Sorted().ToString() << "\nactual (maintained):\n"
      << actual.Sorted().ToString();
}

// Every table's hash-index count, by table name: equal before and after
// an epoch when the epoch built no index.
inline std::map<std::string, size_t> IndexCounts(const Database& db) {
  std::map<std::string, size_t> out;
  for (const std::string& name : db.TableNames()) {
    out[name] = db.GetTable(name).index_count();
  }
  return out;
}

// `view` damaged as a loaded repository can carry it: its first
// diff-computing step's query becomes σ(`column` = 1) over that query,
// naming a column the query's output lacks.
inline CompiledView SelectOnMissingColumn(CompiledView view,
                                          const std::string& column) {
  for (ScriptStep& step : view.script.steps) {
    if (!step.compute.has_value() || step.compute->raw_relation) continue;
    step.compute->query = PlanNode::Select(
        step.compute->query, Eq(Col(column), Lit(Value(int64_t{1}))));
    break;
  }
  return view;
}

// A one-view repository dump, as ViewManager::SerializeRepository frames
// it.
inline std::string RepositoryOf(const CompiledView& view) {
  return "(repository 1 1\n" + SerializeCompiledView(view) + "\n)\n";
}

// This process's scratch directory, removed at exit. ctest runs every test
// of the suite as its own process, concurrently under -j, and race loops
// run several copies of one test binary at once, so test files must not
// sit at shared paths.
class ProcessScratch {
 public:
  ProcessScratch() {
    std::string pattern = ::testing::TempDir() + "idivm_XXXXXX";
    IDIVM_CHECK(::mkdtemp(pattern.data()) != nullptr);
    dir_ = pattern;
  }
  ~ProcessScratch() { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

inline const ProcessScratch& Scratch() {
  static const ProcessScratch scratch;
  return scratch;
}

}  // namespace idivm::testing

#endif  // IDIVM_TESTS_TEST_UTIL_H_
