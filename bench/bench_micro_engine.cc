// Engine micro-benchmarks (google-benchmark): substrate health numbers for
// the storage layer, expression evaluation, join strategies and diff
// application. Not a paper figure — these bound the constant factors behind
// the cost-model units.

#include <benchmark/benchmark.h>

#include "src/algebra/evaluator.h"
#include "src/common/rng.h"
#include "src/diff/apply.h"
#include "src/storage/database.h"

namespace idivm {
namespace {

void FillTable(Table& table, int64_t rows, Rng* rng) {
  Relation data(table.schema());
  for (int64_t i = 0; i < rows; ++i) {
    data.Append({Value(i), Value(rng->UniformInt(0, rows / 10 + 1)),
                 Value(rng->UniformDouble() * 100)});
  }
  table.BulkLoadUncounted(data);
}

void BM_TableInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    Table& t = db.CreateTable("t",
                              Schema({{"id", DataType::kInt64},
                                      {"k", DataType::kInt64},
                                      {"v", DataType::kDouble}}),
                              {"id"});
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      t.Insert({Value(i), Value(i % 97), Value(1.0)});
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableInsert)->Arg(10000);

void BM_IndexProbe(benchmark::State& state) {
  Database db;
  Rng rng(1);
  Table& t = db.CreateTable("t",
                            Schema({{"id", DataType::kInt64},
                                    {"k", DataType::kInt64},
                                    {"v", DataType::kDouble}}),
                            {"id"});
  FillTable(t, state.range(0), &rng);
  const std::vector<size_t> cols = {1};
  t.EnsureIndex(cols);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.LookupWhereEquals(cols, {Value(i++ % (state.range(0) / 10 + 1))}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexProbe)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  Database db;
  Rng rng(2);
  Table& r = db.CreateTable("r",
                            Schema({{"id", DataType::kInt64},
                                    {"k", DataType::kInt64},
                                    {"v", DataType::kDouble}}),
                            {"id"});
  Table& s = db.CreateTable("s",
                            Schema({{"sid", DataType::kInt64},
                                    {"sk", DataType::kInt64},
                                    {"sv", DataType::kDouble}}),
                            {"sid"});
  FillTable(r, state.range(0), &rng);
  FillTable(s, state.range(0) / 10, &rng);
  const PlanPtr plan = PlanNode::Join(PlanNode::Scan("r"),
                                      PlanNode::Scan("s"),
                                      Eq(Col("k"), Col("sid")));
  for (auto _ : state) {
    EvalContext ctx;
    ctx.db = &db;
    benchmark::DoNotOptimize(Evaluate(plan, ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(20000);

void BM_ApplyUpdateDiff(benchmark::State& state) {
  Database db;
  Rng rng(3);
  Table& t = db.CreateTable("t",
                            Schema({{"id", DataType::kInt64},
                                    {"k", DataType::kInt64},
                                    {"v", DataType::kDouble}}),
                            {"id"});
  FillTable(t, 100000, &rng);
  DiffSchema schema(DiffType::kUpdate, "t", t.schema(), {"id"}, {},
                    {"v"});
  DiffInstance diff(schema);
  for (int64_t i = 0; i < state.range(0); ++i) {
    diff.Append({Value(rng.UniformInt(0, 99999)), Value(42.0)});
  }
  for (auto _ : state) {
    ApplyResult result = ApplyDiff(diff, t);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApplyUpdateDiff)->Arg(500);

void BM_ExprEval(benchmark::State& state) {
  const Schema schema({{"a", DataType::kDouble}, {"b", DataType::kInt64}});
  const ExprPtr expr =
      And(Gt(Add(Col("a"), Mul(Col("b"), Lit(Value(2.0)))), Lit(Value(10.0))),
          Lt(Col("a"), Lit(Value(90.0))));
  const BoundExpr bound(expr, schema);
  const Row row = {Value(25.0), Value(int64_t{3})};
  for (auto _ : state) {
    benchmark::DoNotOptimize(bound.Holds(row));
  }
}
BENCHMARK(BM_ExprEval);

}  // namespace
}  // namespace idivm
