// BSMA workload tests (Section 7.1): all eight Fig. 9b views compile,
// materialize non-trivially, and are maintained correctly under the paper's
// workload (user.tweetsnum / user.favornum updates) by both idIVM and the
// tuple-based baseline.

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/sql/parser.h"
#include "src/tivm/tuple_ivm.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

BsmaConfig TinyConfig() {
  BsmaConfig config;
  config.users = 120;
  config.friends_per_user = 5;
  config.num_cities = 6;
  config.num_topics = 10;
  return config;
}

TEST(BsmaTest, GeneratedRatios) {
  Database db;
  BsmaWorkload workload(&db, TinyConfig());
  const int64_t users = 120;
  EXPECT_EQ(db.GetTable("user").size(), static_cast<size_t>(users));
  EXPECT_EQ(db.GetTable("microblog").size(), static_cast<size_t>(20 * users));
  EXPECT_EQ(db.GetTable("friendlist").size(), static_cast<size_t>(5 * users));
  // 10% of tweets retweeted twice → 4×users rows; 20% mentioned twice →
  // 8×users; 40% with two events → 16×users.
  EXPECT_EQ(db.GetTable("retweets").size(), static_cast<size_t>(4 * users));
  EXPECT_EQ(db.GetTable("mentions").size(), static_cast<size_t>(8 * users));
  EXPECT_EQ(db.GetTable("rel_event_microblog").size(),
            static_cast<size_t>(16 * users));
}

class BsmaViewTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BsmaViewTest, IdIvmMaintainsView) {
  Database db;
  BsmaWorkload workload(&db, TinyConfig());
  const PlanPtr plan = workload.ViewPlan(GetParam());
  Maintainer m(&db, CompileView("v", plan, db));
  EXPECT_GT(db.GetTable("v").size(), 0u)
      << GetParam() << " materialized empty — workload too small?";
  ModificationLogger logger(&db);
  workload.ApplyUserUpdates(&logger, 30);
  const auto indexes = testing::IndexCounts(db);
  m.Maintain(logger.NetChanges());
  EXPECT_EQ(testing::IndexCounts(db), indexes) << "the epoch built an index";
  testing::ExpectViewMatchesRecompute(&db, m.view().plan, "v", GetParam());
}

TEST_P(BsmaViewTest, TupleIvmMaintainsView) {
  Database db;
  BsmaWorkload workload(&db, TinyConfig());
  const PlanPtr plan = workload.ViewPlan(GetParam());
  TupleIvm tivm(&db, "v", plan);
  ModificationLogger logger(&db);
  workload.ApplyUserUpdates(&logger, 30);
  const auto indexes = testing::IndexCounts(db);
  tivm.Maintain(logger.NetChanges());
  EXPECT_EQ(testing::IndexCounts(db), indexes) << "the epoch built an index";
  testing::ExpectViewMatchesRecompute(&db, plan, "v", GetParam());
}

TEST_P(BsmaViewTest, SqlTextMatchesHandBuiltPlan) {
  Database db;
  BsmaWorkload workload(&db, TinyConfig());
  const sql::ParseResult parsed =
      sql::ParseView(BsmaWorkload::ViewSql(GetParam()), db);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Relation from_sql = testing::Recompute(&db, parsed.plan);
  const Relation from_plan =
      testing::Recompute(&db, workload.ViewPlan(GetParam()));
  EXPECT_TRUE(from_sql.BagEquals(from_plan))
      << GetParam() << ": SQL schema "
      << from_sql.schema().ToString() << " vs plan schema "
      << from_plan.schema().ToString();
}

INSTANTIATE_TEST_SUITE_P(AllViews, BsmaViewTest,
                         ::testing::ValuesIn(BsmaWorkload::ViewNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace idivm
