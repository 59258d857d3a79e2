// Fuzzing the ∆-script repository parser (src/core/script_io) and the
// compiler behind it (src/exec): a loaded script is external input, so every
// truncation and byte-level mutation of a valid serialization must come
// back as a parse error, or parse and then compile or be rejected as a
// corrupt script — never a crash, abort, or exception. The corpus is a real
// serialized BSMA view (the richest script shape: joins, aggregates,
// caches, diff registries).

#include <string>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/script_io.h"
#include "src/core/view_manager.h"
#include "src/exec/compiler.h"
#include "src/workload/bsma.h"
#include "tests/test_util.h"

namespace idivm {
namespace {

class ScriptIoFuzzTest : public ::testing::Test {
 protected:
  ScriptIoFuzzTest() {
    BsmaConfig config;
    config.users = 60;
    config.friends_per_user = 4;
    config.num_cities = 5;
    config.num_topics = 8;
    workload_ = std::make_unique<BsmaWorkload>(&db_, config);
    // qs1 is an aggregate over a join: exercises plans, γ steps, caches
    // and the full diff registry in one serialization.
    view_ = std::make_unique<CompiledView>(
        CompileView("v", workload_->ViewPlan("qs1"), db_));
    corpus_ = SerializeCompiledView(*view_);
  }

  // A mutation that loads is compiled against the same database: it
  // compiles, or is rejected as a corrupt script.
  void ExpectCompilesOrRejected(const CompiledView& view, int round) {
    const auto program = exec::CompileProgram(view, db_);
    if (!program.ok()) {
      EXPECT_EQ(program.status().code(), StatusCode::kCorruptScript)
          << "round " << round << ": " << program.status().ToString();
    }
  }

  Database db_;
  std::unique_ptr<BsmaWorkload> workload_;
  std::unique_ptr<CompiledView> view_;
  std::string corpus_;
};

TEST_F(ScriptIoFuzzTest, CorpusRoundTrips) {
  const LoadResult result = LoadCompiledView(corpus_, db_);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(SerializeCompiledView(result.view), corpus_);
}

// Every prefix of the corpus is a truncated dump: load must either fail
// with a message or — when only trailing whitespace was cut — still
// round-trip to the full corpus. Never a crash.
TEST_F(ScriptIoFuzzTest, EveryTruncationIsAParseError) {
  for (size_t len = 0; len < corpus_.size(); ++len) {
    const LoadResult result = LoadCompiledView(corpus_.substr(0, len), db_);
    if (result.ok) {
      EXPECT_EQ(SerializeCompiledView(result.view), corpus_)
          << "truncation at " << len << " parsed to a different view";
    } else {
      EXPECT_FALSE(result.error.empty()) << "truncation at " << len;
    }
  }
}

// Seeded random byte mutations: flip 1-8 bytes to arbitrary values. The
// result either parses (a benign mutation, e.g. inside a string literal or
// a number that stays in range) or fails with an error — but never aborts.
// What parses compiles or is rejected as a corrupt script.
TEST_F(ScriptIoFuzzTest, RandomByteMutationsNeverCrash) {
  Rng rng(20260805);
  const int rounds = 4000;
  int parsed = 0;
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = corpus_;
    const int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    const LoadResult result = LoadCompiledView(mutated, db_);
    if (result.ok) {
      ++parsed;
      ExpectCompilesOrRejected(result.view, round);
    } else {
      EXPECT_FALSE(result.error.empty()) << "round " << round;
    }
  }
  // Sanity: the fuzz is actually reaching the parser's error paths.
  EXPECT_LT(parsed, rounds);
}

// Structured mutations: splice random digit strings over numeric tokens to
// hit the enum-tag and out-of-range integer validation specifically. What
// parses compiles or is rejected as a corrupt script.
TEST_F(ScriptIoFuzzTest, NumericSplicesAreRejectedNotFatal) {
  Rng rng(42);
  const char* splices[] = {"9",      "99",       "-1",
                           "999999", "12345678", "99999999999999999999"};
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = corpus_;
    // Find a random digit position and overwrite with a splice.
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    while (pos < mutated.size() &&
           (mutated[pos] < '0' || mutated[pos] > '9')) {
      ++pos;
    }
    if (pos >= mutated.size()) continue;
    const char* splice =
        splices[rng.UniformInt(0, std::size(splices) - 1)];
    mutated = mutated.substr(0, pos) + splice + mutated.substr(pos + 1);
    const LoadResult result = LoadCompiledView(mutated, db_);
    if (result.ok) {
      ExpectCompilesOrRejected(result.view, round);
    } else {
      EXPECT_FALSE(result.error.empty()) << "round " << round;
    }
  }
}

// The repository wrapper (header + per-view sections) is hardened too.
TEST_F(ScriptIoFuzzTest, RepositoryTruncationsAreErrors) {
  Database db;
  testing::LoadRunningExample(&db);
  ViewManager vm(&db);
  vm.DefineView("v_spj", testing::RunningExampleSpjPlan(db));
  vm.DefineView("v_agg", testing::RunningExampleAggPlan(db));
  const std::string repo = vm.SerializeRepository();

  Database replica;
  testing::LoadRunningExample(&replica);
  ViewManager target(&replica);
  // Loading needs the view/cache tables to exist; mirror them.
  for (const std::string& name : db.TableNames()) {
    if (!replica.HasTable(name)) {
      const Table& table = db.GetTable(name);
      replica.CreateTable(name, table.schema(), table.key_columns());
    }
  }
  for (size_t len = 0; len < repo.size(); ++len) {
    ViewManager fresh(&replica);
    const std::string error = fresh.LoadRepository(repo.substr(0, len));
    if (error.empty()) {
      // Only trailer bytes were cut: both views must have loaded whole.
      EXPECT_EQ(fresh.ViewNames().size(), 2u)
          << "repository truncation at " << len << " half-loaded";
    }
  }
  ViewManager full(&replica);
  EXPECT_EQ(full.LoadRepository(repo), "");
}

}  // namespace
}  // namespace idivm
