// Unit tests for the plan evaluator: operator semantics, join strategies,
// probe-path costs (the diff-driven loop plan of Section 6), pre-state
// scans and short-circuiting of empty diffs.

#include <map>
#include <string>

#include "gtest/gtest.h"
#include "src/algebra/evaluator.h"
#include "src/core/maintainer.h"

namespace idivm {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    Table& r = db_.CreateTable("r", Schema({{"rid", DataType::kInt64},
                                            {"k", DataType::kInt64},
                                            {"v", DataType::kDouble}}),
                               {"rid"});
    Relation r_data(r.schema());
    for (int64_t i = 0; i < 12; ++i) {
      r_data.Append({Value(i), Value(i % 4), Value(i * 1.0)});
    }
    r.BulkLoadUncounted(r_data);

    Table& s = db_.CreateTable("s", Schema({{"sid", DataType::kInt64},
                                            {"w", DataType::kString}}),
                               {"sid"});
    Relation s_data(s.schema());
    for (int64_t i = 0; i < 4; ++i) {
      s_data.Append({Value(i), Value(i % 2 == 0 ? "even" : "odd")});
    }
    s.BulkLoadUncounted(s_data);
  }

  Relation Run(const PlanPtr& plan, EvalContext* ctx = nullptr) {
    EvalContext local;
    local.db = &db_;
    return Evaluate(plan, ctx != nullptr ? *ctx : local);
  }

  Database db_;
};

TEST_F(EvaluatorTest, ScanSelectProject) {
  const PlanPtr p = PlanNode::Project(
      PlanNode::Select(PlanNode::Scan("r"), Ge(Col("v"), Lit(Value(8.0)))),
      {{Col("rid"), "rid"}, {Mul(Col("v"), Lit(Value(2.0))), "v2"}});
  const Relation out = Run(p);
  EXPECT_EQ(out.size(), 4u);  // rids 8..11
  EXPECT_DOUBLE_EQ(out.Sorted().rows()[0][1].AsDouble(), 16.0);
}

TEST_F(EvaluatorTest, HashJoin) {
  const PlanPtr p = PlanNode::Join(PlanNode::Scan("r"), PlanNode::Scan("s"),
                                   Eq(Col("k"), Col("sid")));
  EXPECT_EQ(Run(p).size(), 12u);  // every r row matches one s row
}

TEST_F(EvaluatorTest, ThetaJoinNestedLoop) {
  const PlanPtr p = PlanNode::Join(PlanNode::Scan("r"), PlanNode::Scan("s"),
                                   Lt(Col("k"), Col("sid")));
  // k in {0..3}, sid in {0..3}: pairs with k < sid.
  size_t expected = 0;
  for (int k = 0; k < 4; ++k) expected += 3 * (3 - k);
  EXPECT_EQ(Run(p).size(), expected);
}

TEST_F(EvaluatorTest, SemiAndAntiSemiJoinPartition) {
  const PlanPtr sj = PlanNode::SemiJoin(
      PlanNode::Scan("r"),
      PlanNode::Select(PlanNode::Scan("s"), Eq(Col("w"), Lit(Value("even")))),
      Eq(Col("k"), Col("sid")));
  const PlanPtr asj = PlanNode::AntiSemiJoin(
      PlanNode::Scan("r"),
      PlanNode::Select(PlanNode::Scan("s"), Eq(Col("w"), Lit(Value("even")))),
      Eq(Col("k"), Col("sid")));
  const size_t semi = Run(sj).size();
  const size_t anti = Run(asj).size();
  EXPECT_EQ(semi + anti, 12u);
  EXPECT_EQ(semi, 6u);  // k even
}

TEST_F(EvaluatorTest, UnionAllTagsBranches) {
  const PlanPtr left = PlanNode::Project(PlanNode::Scan("s"),
                                         {{Col("sid"), "id"}});
  const PlanPtr u = PlanNode::UnionAll(left, left, "b");
  const Relation out = Run(u);
  EXPECT_EQ(out.size(), 8u);
  int64_t b_sum = 0;
  for (const Row& row : out.rows()) b_sum += row[1].AsInt64();
  EXPECT_EQ(b_sum, 4);
}

TEST_F(EvaluatorTest, AggregateFunctions) {
  const PlanPtr agg = PlanNode::Aggregate(
      PlanNode::Scan("r"), {"k"},
      {{AggFunc::kSum, Col("v"), "total"},
       {AggFunc::kCount, nullptr, "n"},
       {AggFunc::kAvg, Col("v"), "mean"},
       {AggFunc::kMin, Col("v"), "lo"},
       {AggFunc::kMax, Col("v"), "hi"}});
  const Relation out = Run(agg).Sorted();
  ASSERT_EQ(out.size(), 4u);
  // Group k=0: rids 0,4,8 -> v 0,4,8.
  EXPECT_DOUBLE_EQ(out.rows()[0][1].AsDouble(), 12.0);
  EXPECT_EQ(out.rows()[0][2].AsInt64(), 3);
  EXPECT_DOUBLE_EQ(out.rows()[0][3].AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(out.rows()[0][4].AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(out.rows()[0][5].AsDouble(), 8.0);
}

TEST_F(EvaluatorTest, GlobalAggregateOverEmptyInput) {
  const PlanPtr agg = PlanNode::Aggregate(
      PlanNode::Select(PlanNode::Scan("r"), Lt(Col("v"), Lit(Value(-1.0)))),
      {}, {{AggFunc::kCount, nullptr, "n"}, {AggFunc::kSum, Col("v"), "t"}});
  const Relation out = Run(agg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.rows()[0][0].AsInt64(), 0);
  EXPECT_TRUE(out.rows()[0][1].is_null());
}

TEST_F(EvaluatorTest, AggregateIgnoresNullArgs) {
  Table& t = db_.CreateTable("nullt", Schema({{"id", DataType::kInt64},
                                              {"x", DataType::kDouble}}),
                             {"id"});
  t.BulkLoadUncounted(Relation(
      t.schema(), {{Value(int64_t{1}), Value(2.0)},
                   {Value(int64_t{2}), Value::Null()},
                   {Value(int64_t{3}), Value(4.0)}}));
  const PlanPtr agg = PlanNode::Aggregate(
      PlanNode::Scan("nullt"), {},
      {{AggFunc::kSum, Col("x"), "t"},
       {AggFunc::kCount, Col("x"), "nx"},
       {AggFunc::kCount, nullptr, "n"},
       {AggFunc::kAvg, Col("x"), "m"}});
  const Relation out = Run(agg);
  EXPECT_DOUBLE_EQ(out.rows()[0][0].AsDouble(), 6.0);
  EXPECT_EQ(out.rows()[0][1].AsInt64(), 2);  // count(x) skips NULL
  EXPECT_EQ(out.rows()[0][2].AsInt64(), 3);  // count(*) does not
  EXPECT_DOUBLE_EQ(out.rows()[0][3].AsDouble(), 3.0);
}

TEST_F(EvaluatorTest, TransientDiffDrivenJoinCosts) {
  // Join a 2-row transient diff with r via its index: 1 lookup per distinct
  // key + 1 read per matched row, nothing else (Section 6's diff-driven
  // loop plan; transient reads are free).
  const Schema diff_schema({{"k", DataType::kInt64}});
  Relation diff(diff_schema, {{Value(int64_t{1})}, {Value(int64_t{2})}});
  const PlanPtr p = PlanNode::Join(
      PlanNode::RelationRef("d", diff_schema),
      PlanNode::Project(PlanNode::Scan("r"), {{Col("rid"), "rid"},
                                              {Col("k"), "rk"},
                                              {Col("v"), "v"}}),
      Eq(Col("k"), Col("rk")));
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["d"] = &diff;
  db_.stats().Reset();
  const Relation out = Evaluate(p, ctx);
  EXPECT_EQ(out.size(), 6u);  // 3 rows per key
  EXPECT_EQ(db_.stats().index_lookups, 2);
  EXPECT_EQ(db_.stats().tuple_reads, 6);
}

TEST_F(EvaluatorTest, RepeatedKeysProbeOnce) {
  // Duplicate diff keys reuse the probe (the a<1 discussion of Sec. 6.1).
  const Schema diff_schema({{"k", DataType::kInt64}});
  Relation diff(diff_schema, {{Value(int64_t{1})},
                              {Value(int64_t{1})},
                              {Value(int64_t{1})}});
  const PlanPtr p = PlanNode::Join(
      PlanNode::RelationRef("d", diff_schema),
      PlanNode::Project(PlanNode::Scan("r"),
                        {{Col("rid"), "rid"}, {Col("k"), "rk"}}),
      Eq(Col("k"), Col("rk")));
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["d"] = &diff;
  db_.stats().Reset();
  EXPECT_EQ(Evaluate(p, ctx).size(), 9u);
  EXPECT_EQ(db_.stats().index_lookups, 1);
  EXPECT_EQ(db_.stats().tuple_reads, 3);
}

TEST_F(EvaluatorTest, EmptyDiffShortCircuits) {
  const Schema diff_schema({{"q", DataType::kInt64}});
  Relation empty(diff_schema);
  // Non-equi join cannot probe; without rows it must not scan r either.
  const PlanPtr p = PlanNode::Join(PlanNode::RelationRef("d", diff_schema),
                                   PlanNode::Scan("r"),
                                   Lt(Col("q"), Col("k")));
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["d"] = &empty;
  db_.stats().Reset();
  EXPECT_TRUE(Evaluate(p, ctx).empty());
  EXPECT_EQ(db_.stats().TotalAccesses(), 0);
}

TEST_F(EvaluatorTest, ProbeThroughJoinChain) {
  // Probing Join(r', s) on r-columns chains index lookups (the multi-join
  // diff-driven plan of Fig. 12b).
  const Schema diff_schema({{"rid", DataType::kInt64}});
  Relation diff(diff_schema, {{Value(int64_t{5})}});
  const PlanPtr joined = PlanNode::Join(
      PlanNode::Project(PlanNode::Scan("r"), {{Col("rid"), "rrid"},
                                              {Col("k"), "k"},
                                              {Col("v"), "v"}}),
      PlanNode::Scan("s"), Eq(Col("k"), Col("sid")));
  const PlanPtr p = PlanNode::Join(PlanNode::RelationRef("d", diff_schema),
                                   joined, Eq(Col("rid"), Col("rrid")));
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["d"] = &diff;
  db_.stats().Reset();
  const Relation out = Evaluate(p, ctx);
  EXPECT_EQ(out.size(), 1u);
  // r probe (1 lookup + 1 read) then s probe (1 lookup + 1 read).
  EXPECT_EQ(db_.stats().index_lookups, 2);
  EXPECT_EQ(db_.stats().tuple_reads, 2);
}

TEST_F(EvaluatorTest, TransientRightSideDrivesJoinProbes) {
  // Stored left ⋈ transient right: the diff on the right drives index
  // probes of r, one per distinct key; output keeps left ++ right columns.
  const Schema diff_schema({{"q", DataType::kInt64}});
  Relation diff(diff_schema, {{Value(int64_t{1})}, {Value(int64_t{2})}});
  const PlanPtr p = PlanNode::Join(PlanNode::Scan("r"),
                                   PlanNode::RelationRef("d", diff_schema),
                                   Eq(Col("k"), Col("q")));
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["d"] = &diff;
  db_.stats().Reset();
  const Relation out = Evaluate(p, ctx);
  EXPECT_EQ(out.schema().ColumnNames(),
            (std::vector<std::string>{"rid", "k", "v", "q"}));
  ASSERT_EQ(out.size(), 6u);  // rids 1,5,9 (k=1) and 2,6,10 (k=2)
  for (const Row& row : out.rows()) {
    EXPECT_EQ(row[1].AsInt64(), row[3].AsInt64());
    EXPECT_EQ(row[0].AsInt64() % 4, row[1].AsInt64());
  }
  EXPECT_EQ(db_.stats().index_lookups, 2);
  EXPECT_EQ(db_.stats().tuple_reads, 6);
  EXPECT_EQ(db_.stats().TotalAccesses(), 8);
}

TEST_F(EvaluatorTest, TransientLeftSemiJoinsProbe) {
  // σ(∆) ⋉ s and ∆ ⋉̄ s probe s once per non-NULL diff key; a NULL key
  // matches nothing, so ⋉̄ keeps its row without probing.
  const Schema diff_schema({{"k", DataType::kInt64}});
  Relation diff(diff_schema, {{Value(int64_t{1})},
                              {Value(int64_t{7})},
                              {Value::Null()}});
  const PlanPtr ref = PlanNode::RelationRef("d", diff_schema);
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["d"] = &diff;

  db_.stats().Reset();
  const Relation semi = Evaluate(
      PlanNode::SemiJoin(ref, PlanNode::Scan("s"), Eq(Col("k"), Col("sid"))),
      ctx);
  ASSERT_EQ(semi.size(), 1u);
  EXPECT_EQ(semi.rows()[0][0].AsInt64(), 1);
  EXPECT_EQ(db_.stats().index_lookups, 2);  // keys 1 and 7
  EXPECT_EQ(db_.stats().tuple_reads, 1);    // s row 1
  EXPECT_EQ(db_.stats().TotalAccesses(), 3);

  db_.stats().Reset();
  const Relation anti = Evaluate(
      PlanNode::AntiSemiJoin(ref, PlanNode::Scan("s"),
                             Eq(Col("k"), Col("sid"))),
      ctx);
  ASSERT_EQ(anti.size(), 2u);
  EXPECT_EQ(anti.rows()[0][0].AsInt64(), 7);
  EXPECT_TRUE(anti.rows()[1][0].is_null());
  EXPECT_EQ(db_.stats().index_lookups, 2);
  EXPECT_EQ(db_.stats().tuple_reads, 1);
  EXPECT_EQ(db_.stats().TotalAccesses(), 3);

  Relation null_only(diff_schema, {{Value::Null()}});
  ctx.transient["d"] = &null_only;
  db_.stats().Reset();
  const Relation kept = Evaluate(
      PlanNode::AntiSemiJoin(ref, PlanNode::Scan("s"),
                             Eq(Col("k"), Col("sid"))),
      ctx);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept.rows()[0][0].is_null());
  EXPECT_EQ(db_.stats().TotalAccesses(), 0);
}

TEST_F(EvaluatorTest, StoredLeftSemiJoinProbesPartialKey) {
  // Stored left ⋉ transient right on two equi keys, one of them computed:
  // only k can be probed, so rows sharing a k value share one probe and
  // v2 = dv is checked on the fetched rows. Left row rid 1 is matched by
  // two diff rows and still emitted once.
  const PlanPtr left = PlanNode::Project(
      PlanNode::Scan("r"), {{Col("rid"), "rid"},
                            {Col("k"), "k"},
                            {Mul(Col("v"), Lit(Value(1.0))), "v2"}});
  const Schema diff_schema({{"dk", DataType::kInt64},
                            {"dv", DataType::kDouble},
                            {"tag", DataType::kString}});
  Relation diff(diff_schema,
                {{Value(int64_t{1}), Value(1.0), Value("a")},
                 {Value(int64_t{1}), Value(1.0), Value("b")},
                 {Value(int64_t{1}), Value(5.0), Value("c")},
                 {Value(int64_t{2}), Value(99.0), Value("d")}});
  const PlanPtr p = PlanNode::SemiJoin(
      left, PlanNode::RelationRef("d", diff_schema),
      And(Eq(Col("k"), Col("dk")), Eq(Col("v2"), Col("dv"))));
  EvalContext ctx;
  ctx.db = &db_;
  ctx.transient["d"] = &diff;
  db_.stats().Reset();
  const Relation out = Evaluate(p, ctx).Sorted();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.rows()[0][0].AsInt64(), 1);
  EXPECT_EQ(out.rows()[1][0].AsInt64(), 5);
  EXPECT_EQ(db_.stats().index_lookups, 2);  // probe keys k=1, k=2
  EXPECT_EQ(db_.stats().tuple_reads, 6);    // three r rows per key
  EXPECT_EQ(db_.stats().TotalAccesses(), 8);
}

TEST_F(EvaluatorTest, PreStateScan) {
  // A pre-state table replaces the stored table for kPre scans only.
  const Table& r = db_.GetTable("r");
  Table pre(r.name(), r.schema(), r.key_columns(), &db_.stats());
  pre.BulkLoadUncounted(Relation(
      r.schema(), {{Value(int64_t{100}), Value(int64_t{0}), Value(0.0)}}));
  const std::map<std::string, Table*> pre_state = {{"r", &pre}};
  EvalContext ctx;
  ctx.db = &db_;
  ctx.pre_state = &pre_state;
  EXPECT_EQ(Evaluate(PlanNode::Scan("r", StateTag::kPre), ctx).size(), 1u);
  EXPECT_EQ(Evaluate(PlanNode::Scan("r", StateTag::kPost), ctx).size(), 12u);
}

TEST_F(EvaluatorTest, PreStateProbeOnUnindexedColumnsDies) {
  // A pre-state table has only the indexes its engine declared: a diff
  // driving probes of r's pre-state on k fails the table's check, naming
  // the table and the columns, instead of building the index.
  const Table& r = db_.GetTable("r");
  Table pre(r.name(), r.schema(), r.key_columns(), &db_.stats());
  pre.BulkLoadUncounted(r.SnapshotUncounted());
  const std::map<std::string, Table*> pre_state = {{"r", &pre}};
  const Schema diff_schema({{"dk", DataType::kInt64}});
  const Relation diff(diff_schema, {{Value(int64_t{1})}});
  EvalContext ctx;
  ctx.db = &db_;
  ctx.pre_state = &pre_state;
  ctx.transient["d"] = &diff;
  const PlanPtr p = PlanNode::Join(PlanNode::RelationRef("d", diff_schema),
                                   PlanNode::Scan("r", StateTag::kPre),
                                   Eq(Col("dk"), Col("k")));
  EXPECT_DEATH(Evaluate(p, ctx), "table r has no index on \\(k\\)");
  pre.EnsureIndex({1});
  EXPECT_EQ(Evaluate(p, ctx).size(), 3u);  // rids 1, 5, 9
}

TEST_F(EvaluatorTest, IndexedRelationProbeCosts) {
  // A pre-state table charges what a stored table does: 1 index lookup + 1
  // read per returned row per probe, 1 read per row per scan.
  Table& stored = db_.CreateTable(
      "p", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}), {"b"});
  Relation data(stored.schema());
  for (int64_t i = 0; i < 9; ++i) data.Append({Value(i % 2), Value(i)});
  stored.BulkLoadUncounted(data);
  // Row b = 9 was deleted this epoch, so the pre-state holds 10 rows.
  Modification deleted;
  deleted.kind = DiffType::kDelete;
  deleted.pre = {Value(int64_t{1}), Value(int64_t{9})};
  std::map<std::string, Table> tables =
      MakePreStateTables(&db_, {{"p", {{0}}}});
  const std::map<std::string, Table*> pre_state =
      LoadPreState(db_, {{"p", {deleted}}}, &tables);
  Table& rel = *pre_state.at("p");
  db_.stats().Reset();
  EXPECT_EQ(rel.LookupWhereEquals({0}, {Value(int64_t{1})}).size(), 5u);
  EXPECT_EQ(db_.stats().index_lookups, 1);
  EXPECT_EQ(db_.stats().tuple_reads, 5);
  db_.stats().Reset();
  EXPECT_EQ(rel.ScanAll().size(), 10u);
  EXPECT_EQ(db_.stats().tuple_reads, 10);
}

TEST_F(EvaluatorTest, EmptyRefResolvesEmpty) {
  const PlanPtr p = PlanNode::RelationRef(
      "__empty_0", Schema({{"x", DataType::kInt64}}));
  EXPECT_TRUE(Run(p).empty());
}

}  // namespace
}  // namespace idivm
