// Tuple-based IVM baseline tests: the D-script path must keep views
// identical to recomputation for SPJ views and root aggregates — the shapes
// of the paper's Section 6 analysis.

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/modification_log.h"
#include "src/tivm/tuple_ivm.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

using ::idivm::testing::ExpectViewMatchesRecompute;
using ::idivm::testing::LoadRunningExample;
using ::idivm::testing::RunningExampleAggPlan;
using ::idivm::testing::RunningExampleSpjPlan;

TEST(TupleIvmTest, SpjUpdatePropagates) {
  Database db;
  LoadRunningExample(&db);
  TupleIvm tivm(&db, "v", RunningExampleSpjPlan(db));
  ModificationLogger logger(&db);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  tivm.Maintain(logger.NetChanges());
  ExpectViewMatchesRecompute(&db, RunningExampleSpjPlan(db), "v");
}

TEST(TupleIvmTest, SpjInsertDeleteUpdateMix) {
  Database db;
  LoadRunningExample(&db);
  TupleIvm tivm(&db, "v", RunningExampleSpjPlan(db));
  ModificationLogger logger(&db);
  EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(7.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D2"), Value("P4")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P2")}));
  EXPECT_TRUE(
      logger.Update("devices", {Value("D3")}, {"category"}, {Value("phone")}));
  tivm.Maintain(logger.NetChanges());
  ExpectViewMatchesRecompute(&db, RunningExampleSpjPlan(db), "v");
}

// The constructor builds every index an epoch probes — through the delta
// plans, the recompute probe and the view's diff key — so no epoch builds
// one.
TEST(TupleIvmTest, FirstEpochBuildsNoIndex) {
  Database db;
  LoadRunningExample(&db);
  TupleIvm spj(&db, "v", RunningExampleSpjPlan(db));
  TupleIvm agg(&db, "vp", RunningExampleAggPlan(db));
  ModificationLogger logger(&db);
  EXPECT_TRUE(logger.Update("parts", {Value("P2")}, {"price"}, {Value(25.0)}));
  EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(7.0)}));
  EXPECT_TRUE(logger.Insert("devices_parts", {Value("D2"), Value("P4")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P1")}));
  EXPECT_TRUE(logger.Update("devices", {Value("D3")}, {"category"},
                            {Value("phone")}));
  const auto before = ::idivm::testing::IndexCounts(db);
  const auto net = logger.NetChanges();
  spj.Maintain(net);
  agg.Maintain(net);
  EXPECT_EQ(::idivm::testing::IndexCounts(db), before);
  ExpectViewMatchesRecompute(&db, RunningExampleSpjPlan(db), "v");
  ExpectViewMatchesRecompute(&db, RunningExampleAggPlan(db), "vp");
}

TEST(TupleIvmTest, AggregateAdditivePath) {
  Database db;
  LoadRunningExample(&db);
  TupleIvm tivm(&db, "vp", RunningExampleAggPlan(db));
  ModificationLogger logger(&db);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(14.0)}));
  tivm.Maintain(logger.NetChanges());
  ExpectViewMatchesRecompute(&db, RunningExampleAggPlan(db), "vp");
}

TEST(TupleIvmTest, AggregateGroupCreateDelete) {
  Database db;
  LoadRunningExample(&db);
  TupleIvm tivm(&db, "vp", RunningExampleAggPlan(db));
  ModificationLogger logger(&db);
  EXPECT_TRUE(
      logger.Update("devices", {Value("D3")}, {"category"}, {Value("phone")}));
  tivm.Maintain(logger.NetChanges());
  ExpectViewMatchesRecompute(&db, RunningExampleAggPlan(db), "vp");
  logger.Clear();
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D2"), Value("P1")}));
  tivm.Maintain(logger.NetChanges());
  ExpectViewMatchesRecompute(&db, RunningExampleAggPlan(db), "vp");
}

// Randomized equivalence over several rounds, SPJ and aggregate roots.
class TupleIvmPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(TupleIvmPropertyTest, MatchesRecompute) {
  const auto& [shape, seed] = GetParam();
  Database db;
  Rng rng(seed * 31 + 5);

  Table& r = db.CreateTable("r",
                            Schema({{"rid", DataType::kInt64},
                                    {"rb", DataType::kInt64},
                                    {"rc", DataType::kDouble}}),
                            {"rid"});
  Relation r_data(r.schema());
  for (int64_t i = 0; i < 30; ++i) {
    r_data.Append({Value(i), Value(rng.UniformInt(0, 5)),
                   Value(static_cast<double>(rng.UniformInt(0, 40)))});
  }
  r.BulkLoadUncounted(r_data);
  Table& s = db.CreateTable(
      "s", Schema({{"sid", DataType::kInt64}, {"se", DataType::kDouble}}),
      {"sid"});
  Relation s_data(s.schema());
  for (int64_t i = 0; i < 6; ++i) {
    s_data.Append(
        {Value(i), Value(static_cast<double>(rng.UniformInt(0, 20)))});
  }
  s.BulkLoadUncounted(s_data);

  PlanPtr plan;
  if (shape == "spj") {
    plan = PlanNode::Select(
        PlanNode::Join(PlanNode::Scan("r"), PlanNode::Scan("s"),
                       Eq(Col("rb"), Col("sid"))),
        Gt(Col("se"), Lit(Value(4.0))));
  } else {
    plan = PlanNode::Aggregate(
        PlanNode::Join(PlanNode::Scan("r"), PlanNode::Scan("s"),
                       Eq(Col("rb"), Col("sid"))),
        {"sid"},
        {{AggFunc::kSum, Col("rc"), "total"}, {AggFunc::kCount, nullptr, "n"}});
  }

  TupleIvm tivm(&db, "v", plan);
  ModificationLogger logger(&db);
  int64_t next_rid = 30;
  for (int round = 0; round < 6; ++round) {
    const int ops = static_cast<int>(rng.UniformInt(2, 8));
    for (int i = 0; i < ops; ++i) {
      switch (rng.UniformInt(0, 4)) {
        case 0:
          EXPECT_TRUE(logger.Insert(
              "r", {Value(next_rid++), Value(rng.UniformInt(0, 5)),
                    Value(static_cast<double>(rng.UniformInt(0, 40)))}));
          break;
        case 1:  // may miss: the key may already be gone
          (void)logger.Delete("r", {Value(rng.UniformInt(0, next_rid - 1))});
          break;
        case 2:
          (void)logger.Update("r", {Value(rng.UniformInt(0, next_rid - 1))},
                              {"rc"},
                              {Value(static_cast<double>(
                                  rng.UniformInt(0, 40)))});
          break;
        case 3:
          (void)logger.Update("r", {Value(rng.UniformInt(0, next_rid - 1))},
                              {"rb"}, {Value(rng.UniformInt(0, 5))});
          break;
        case 4:
          EXPECT_TRUE(logger.Update("s", {Value(rng.UniformInt(0, 5))}, {"se"},
                        {Value(static_cast<double>(rng.UniformInt(0, 20)))}));
          break;
      }
    }
    tivm.Maintain(logger.NetChanges());
    logger.Clear();
    testing::ExpectViewMatchesRecompute(&db, plan, "v",
                                        shape + " round " +
                                            std::to_string(round));
    if (::testing::Test::HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TupleIvmPropertyTest,
    ::testing::Combine(::testing::Values("spj", "agg"),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, uint64_t>>&
           info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace idivm
