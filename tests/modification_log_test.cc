// Unit tests for the modification logger and input routing (Section 5):
// logging, net changes, and routing each change to the i-diff schemas a
// compiled program binds.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/compose.h"
#include "src/core/modification_log.h"
#include "src/core/view_manager.h"
#include "src/exec/compiler.h"
#include "src/exec/vm.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

using NetChanges = std::map<std::string, std::vector<Modification>>;

// The input registers `view`'s compiled program fills from `net`, by
// binding name.
std::map<std::string, DiffInstance> Route(const CompiledView& view,
                                          const NetChanges& net,
                                          const Database& db) {
  const auto program = exec::CompileProgram(view, db);
  IDIVM_CHECK(program.ok(), program.status().ToString());
  std::vector<Relation> inputs = exec::RouteInputs(*program.value(), net);
  std::map<std::string, DiffInstance> out;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const InputDiffBinding& binding = view.input_bindings[i];
    out.emplace(binding.name,
                DiffInstance(binding.schema, std::move(inputs[i])));
  }
  return out;
}

class ModLogTest : public ::testing::Test {
 protected:
  ModLogTest() { testing::LoadRunningExample(&db_); }
  Database db_;
};

TEST_F(ModLogTest, LoggerAppliesAndLogs) {
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(40.0)}));
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"},
                            {Value(11.0)}));
  EXPECT_TRUE(logger.Delete("parts", {Value("P2")}));
  EXPECT_FALSE(logger.Delete("parts", {Value("P9")}));  // absent
  EXPECT_FALSE(logger.Update("parts", {Value("P9")}, {"price"},
                             {Value(1.0)}));

  EXPECT_EQ(db_.GetTable("parts").size(), 3u);  // 3 - 1 + 1
  EXPECT_EQ(logger.log().at("parts").size(), 3u);

  const auto net = logger.NetChanges();
  EXPECT_EQ(net.at("parts").size(), 3u);
  logger.Clear();
  EXPECT_TRUE(logger.log().empty());
}

TEST_F(ModLogTest, DuplicateKeyInsertRejectedWithoutSideEffects) {
  ModificationLogger logger(&db_);
  // P1 already exists: the insert is refused, and neither the table nor the
  // log (nor an attached journal) sees anything.
  EXPECT_FALSE(logger.Insert("parts", {Value("P1"), Value(99.0)}));
  EXPECT_EQ(db_.GetTable("parts").size(), 3u);
  EXPECT_TRUE(logger.log().empty());
  const auto row = db_.GetTable("parts").LookupByKeyUncounted({Value("P1")});
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), 10.0);  // original price intact
  // The same key is insertable again once the holder is deleted.
  EXPECT_TRUE(logger.Delete("parts", {Value("P1")}));
  EXPECT_TRUE(logger.Insert("parts", {Value("P1"), Value(99.0)}));
}

TEST_F(ModLogTest, ApplyReplaysRecordedModifications) {
  // Apply() is the recovery path: it re-applies a Modification exactly as
  // the logger recorded it.
  ModificationLogger source(&db_);
  EXPECT_TRUE(source.Insert("parts", {Value("P4"), Value(40.0)}));
  EXPECT_TRUE(source.Update("parts", {Value("P1")}, {"price"},
                            {Value(11.0)}));
  EXPECT_TRUE(source.Delete("parts", {Value("P2")}));
  std::vector<Modification> recorded = source.log().at("parts");

  Database replica;
  testing::LoadRunningExample(&replica);
  ModificationLogger replay(&replica);
  for (const Modification& mod : recorded) {
    EXPECT_TRUE(replay.Apply("parts", mod));
  }
  EXPECT_TRUE(replica.GetTable("parts").SnapshotUncounted().BagEquals(
      db_.GetTable("parts").SnapshotUncounted()));
}

TEST_F(ModLogTest, LoggerRejectsKeyMutation) {
  ModificationLogger logger(&db_);
  EXPECT_DEATH((void)logger.Update("parts", {Value("P1")}, {"pid"},
                             {Value("P9")}),
               "immutable");
}

TEST_F(ModLogTest, NetChangesCompactPerKey) {
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(12.0)}));
  EXPECT_TRUE(logger.Insert("parts", {Value("P4"), Value(1.0)}));
  EXPECT_TRUE(logger.Delete("parts", {Value("P4")}));
  const auto net = logger.NetChanges();
  ASSERT_EQ(net.at("parts").size(), 1u);
  EXPECT_DOUBLE_EQ(net.at("parts")[0].post[1].AsDouble(), 12.0);
}

TEST_F(ModLogTest, InstancesRoutedToMatchingSchemas) {
  const CompiledView view =
      CompileView("v", testing::RunningExampleSpjPlan(db_), db_);
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("parts", {Value("P1")}, {"price"}, {Value(11.0)}));
  EXPECT_TRUE(logger.Insert("devices", {Value("D4"), Value("phone")}));
  EXPECT_TRUE(logger.Delete("devices_parts", {Value("D1"), Value("P2")}));

  const auto instances = Route(view, logger.NetChanges(), db_);
  int nonempty = 0;
  for (const auto& [name, inst] : instances) {
    if (!inst.empty()) {
      ++nonempty;
      switch (inst.schema().type()) {
        case DiffType::kUpdate:
          EXPECT_EQ(inst.schema().target(), "parts");
          EXPECT_EQ(inst.data().rows()[0][0].AsString(), "P1");
          break;
        case DiffType::kInsert:
          EXPECT_EQ(inst.schema().target(), "devices");
          break;
        case DiffType::kDelete:
          EXPECT_EQ(inst.schema().target(), "devices_parts");
          break;
      }
    }
  }
  EXPECT_EQ(nonempty, 3);
}

TEST_F(ModLogTest, SpanningUpdateGoesToUnionSchemaOnly) {
  // A view where devices has both a conditional (category) and, say,
  // nothing else — use a custom wide table to test routing.
  db_.CreateTable("wide", Schema({{"id", DataType::kInt64},
                                  {"cond", DataType::kInt64},
                                  {"payload", DataType::kDouble}}),
                  {"id"});
  db_.GetTable("wide").BulkLoadUncounted(Relation(
      db_.GetTable("wide").schema(),
      {{Value(int64_t{1}), Value(int64_t{5}), Value(1.0)}}));
  const PlanPtr plan = PlanNode::Select(
      PlanNode::Scan("wide"), Gt(Col("cond"), Lit(Value(int64_t{0}))));
  const CompiledView view = CompileView("vw", plan, db_);

  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("wide", {Value(int64_t{1})}, {"cond", "payload"},
                {Value(int64_t{7}), Value(2.0)}));
  const auto instances = Route(view, logger.NetChanges(), db_);
  // Exactly ONE update instance non-empty: the {cond, payload} union schema.
  int hits = 0;
  for (const auto& [name, inst] : instances) {
    if (inst.schema().type() != DiffType::kUpdate || inst.empty()) continue;
    ++hits;
    EXPECT_EQ(inst.schema().post_columns(),
              (std::vector<std::string>{"cond", "payload"}));
  }
  EXPECT_EQ(hits, 1);
}

TEST_F(ModLogTest, TypeChangingUpdateIsRealChange) {
  // NULL -> value flips count towards non-null; must be seen as a change.
  db_.CreateTable("n", Schema({{"id", DataType::kInt64},
                               {"x", DataType::kDouble}}),
                  {"id"});
  db_.GetTable("n").BulkLoadUncounted(
      Relation(db_.GetTable("n").schema(),
               {{Value(int64_t{1}), Value::Null()}}));
  const CompiledView view = CompileView("vn", PlanNode::Scan("n"), db_);
  ModificationLogger logger(&db_);
  EXPECT_TRUE(logger.Update("n", {Value(int64_t{1})}, {"x"}, {Value(3.0)}));
  const auto instances = Route(view, logger.NetChanges(), db_);
  bool found = false;
  for (const auto& [name, inst] : instances) {
    if (inst.schema().type() == DiffType::kUpdate && !inst.empty()) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// A seeded batch of inserts, deletes and updates of every BSMA base table:
// per table, deletes and updates of random rows (a random non-empty set of
// non-key columns each) and inserts of copies of random rows under fresh
// keys.
NetChanges BsmaBatch(Database* db, uint64_t seed) {
  Rng rng(seed);
  ModificationLogger logger(db);
  for (const char* name :
       {"user", "friendlist", "microblog", "retweets", "mentions",
        "rel_event_microblog"}) {
    const Table& table = db->GetTable(name);
    const std::vector<Row> rows = table.SnapshotUncounted().rows();
    std::vector<size_t> non_keys;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      if (std::find(table.key_indices().begin(), table.key_indices().end(),
                    c) == table.key_indices().end()) {
        non_keys.push_back(c);
      }
    }
    const std::vector<size_t> picks = rng.SampleIndices(rows.size(), 12);
    for (size_t i = 0; i < picks.size(); ++i) {
      const Row& row = rows[picks[i]];
      const Row key = ProjectRow(row, table.key_indices());
      if (i % 3 == 0) {
        EXPECT_TRUE(logger.Delete(name, key));
      } else if (i % 3 == 1 && !non_keys.empty()) {
        std::vector<std::string> set;
        Row values;
        for (size_t c : non_keys) {
          if (set.empty() || rng.UniformInt(0, 1) == 0) {
            set.push_back(table.schema().column(c).name);
            values.push_back(Value(rng.UniformInt(0, 50)));
          }
        }
        EXPECT_TRUE(logger.Update(name, key, set, values));
      } else {
        Row copy = row;
        for (size_t c : table.key_indices()) {
          copy[c] = Value(int64_t{1000000} + static_cast<int64_t>(i));
        }
        EXPECT_TRUE(logger.Insert(name, std::move(copy)));
      }
    }
  }
  return logger.NetChanges();
}

// A view loaded back from the repository routes a batch exactly as the
// freshly compiled view does: the same rows, in the same order, in every
// input register — both registers included where a view scans a table
// twice (q10 and qs1 scan user twice).
TEST(InputRoutingTest, LoadedBsmaViewsRouteLikeFreshOnes) {
  BsmaConfig config;
  config.users = 100;
  config.friends_per_user = 5;
  config.num_cities = 5;
  config.num_topics = 10;
  Database db;
  BsmaWorkload workload(&db, config);
  ViewManager fresh(&db);
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    fresh.DefineView(view, workload.ViewPlan(view));
  }
  ViewManager loaded(&db);
  ASSERT_EQ(loaded.LoadRepository(fresh.SerializeRepository()), "");
  const NetChanges net = BsmaBatch(&db, 20261020);

  for (const std::string& view : BsmaWorkload::ViewNames()) {
    const auto fresh_program =
        exec::CompileProgram(fresh.GetView(view).view(), db);
    const auto loaded_program =
        exec::CompileProgram(loaded.GetView(view).view(), db);
    ASSERT_TRUE(fresh_program.ok()) << view;
    ASSERT_TRUE(loaded_program.ok()) << view;
    const std::vector<Relation> want =
        exec::RouteInputs(*fresh_program.value(), net);
    const std::vector<Relation> got =
        exec::RouteInputs(*loaded_program.value(), net);
    ASSERT_EQ(want.size(), got.size()) << view;
    size_t routed = 0;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].ToString(), got[i].ToString()) << view << " #" << i;
      routed += want[i].size();
    }
    EXPECT_GT(routed, 0u) << view;
    if (view == "q10" || view == "qs1") {
      const exec::CompiledProgram& program = *fresh_program.value();
      const exec::TableRoutes& user = program.input_tables.at("user");
      ASSERT_FALSE(user.update_posts.empty()) << view;
      size_t user_updates = 0;
      for (size_t k = 0; k < user.update_posts.size(); ++k) {
        std::vector<std::string> rows;
        for (size_t i : user.inputs) {
          if (program.inputs[i].post_set == static_cast<int>(k)) {
            rows.push_back(want[i].ToString());
            user_updates += want[i].size();
          }
        }
        ASSERT_EQ(rows.size(), 2u) << view;
        EXPECT_EQ(rows[0], rows[1]) << view;
      }
      EXPECT_GT(user_updates, 0u) << view;
    }
  }
}

}  // namespace
}  // namespace idivm
