// Unit tests for the Section 2 effectiveness conditions.

#include "gtest/gtest.h"
#include "src/diff/apply.h"
#include "src/diff/effectiveness.h"
#include "src/storage/database.h"

namespace idivm {
namespace {

const Schema kView({{"did", DataType::kString},
                    {"pid", DataType::kString},
                    {"price", DataType::kDouble}});

Relation PostState() {
  return Relation(kView, {{Value("D1"), Value("P1"), Value(11.0)},
                          {Value("D2"), Value("P1"), Value(11.0)},
                          {Value("D1"), Value("P2"), Value(20.0)}});
}

TEST(EffectivenessTest, InsertMustExistInPostState) {
  DiffSchema schema(DiffType::kInsert, "v", kView, {"did", "pid"}, {},
                    {"price"});
  DiffInstance good(schema);
  good.Append({Value("D1"), Value("P2"), Value(20.0)});
  EXPECT_TRUE(IsEffective(good, PostState()));

  DiffInstance bad(schema);
  bad.Append({Value("D1"), Value("P2"), Value(99.0)});  // wrong price
  std::string why;
  EXPECT_FALSE(IsEffective(bad, PostState(), &why));
  EXPECT_NE(why.find("not in post-state"), std::string::npos);
}

TEST(EffectivenessTest, DeleteKeysMustBeGone) {
  DiffSchema schema(DiffType::kDelete, "v", kView, {"pid"}, {}, {});
  DiffInstance good(schema);
  good.Append({Value("P9")});  // no P9 in post state
  EXPECT_TRUE(IsEffective(good, PostState()));

  DiffInstance bad(schema);
  bad.Append({Value("P1")});  // still present
  EXPECT_FALSE(IsEffective(bad, PostState()));
}

TEST(EffectivenessTest, UpdateMustMatchFinalValues) {
  DiffSchema schema(DiffType::kUpdate, "v", kView, {"pid"}, {}, {"price"});
  DiffInstance good(schema);
  good.Append({Value("P1"), Value(11.0)});
  good.Append({Value("P7"), Value(5.0)});  // absent key: vacuously fine
  EXPECT_TRUE(IsEffective(good, PostState()));

  DiffInstance bad(schema);
  bad.Append({Value("P1"), Value(10.0)});  // post state has 11
  EXPECT_FALSE(IsEffective(bad, PostState()));
}

TEST(EffectivenessTest, OrderIndependenceOfEffectiveSet) {
  // Two effective diffs applied in either order give the same result — the
  // property Section 2 derives from effectiveness.
  DiffSchema upd(DiffType::kUpdate, "v", kView, {"pid"}, {}, {"price"});
  DiffSchema ins(DiffType::kInsert, "v", kView, {"did", "pid"}, {},
                 {"price"});
  DiffInstance u(upd);
  u.Append({Value("P1"), Value(11.0)});
  DiffInstance i(ins);
  i.Append({Value("D3"), Value("P3"), Value(7.0)});

  auto apply_in_order = [&](bool update_first) {
    Database db;
    Table& view = db.CreateTable("v", kView, {"did", "pid"});
    view.BulkLoadUncounted(
        Relation(kView, {{Value("D1"), Value("P1"), Value(10.0)},
                         {Value("D2"), Value("P1"), Value(10.0)},
                         {Value("D1"), Value("P2"), Value(20.0)}}));
    view.EnsureIndex({1});  // the pid index `u` applies through
    if (update_first) {
      ApplyDiff(u, view);
      ApplyDiff(i, view);
    } else {
      ApplyDiff(i, view);
      ApplyDiff(u, view);
    }
    return view.SnapshotUncounted();
  };
  EXPECT_TRUE(apply_in_order(true).BagEquals(apply_in_order(false)));
}

}  // namespace
}  // namespace idivm
