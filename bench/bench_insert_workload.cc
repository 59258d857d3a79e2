// Section 6.2(b) — insert-heavy workloads, the one case where the paper
// predicts the ID-based approach *loses*, boundedly: maintaining the
// intermediate cache costs one extra access per tuple inserted into V_spj
// (speedup ≥ a/(a+k), k = cache tuples per base diff tuple). This bench
// sweeps the insert:update mix on the aggregate running-example view and
// prints the measured ratio next to the bound.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/analysis/cost_model.h"
#include "src/common/thread_pool.h"
#include "src/core/view_manager.h"
#include "src/workload/bsma.h"

int main(int argc, char** argv) {
  using namespace idivm;
  using namespace idivm::bench;

  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (!flags.Match(argc, argv, &i)) {
      FlagError(argv[i],
                "is not recognized (supported: --threads N, "
                "--trace-out PATH, --metrics-out PATH)");
    }
  }
  flags.Install();
  const int threads = flags.threads;

  std::printf("\nSection 6.2(b): insert-heavy workloads (aggregate view, "
              "200 modifications total)\n\n");
  std::printf("%-22s %10s %12s %10s %14s\n", "mix (ins/del/upd)", "ID-acc",
              "Tuple-acc", "speedup", "bound a/(a+k)");

  struct Mix {
    int64_t inserts, deletes, updates;
  };
  const Mix mixes[] = {
      {0, 0, 200}, {50, 0, 150}, {100, 0, 100}, {150, 0, 50}, {200, 0, 0},
      {100, 100, 0}};

  for (const Mix& mix : mixes) {
    auto run = [&](bool id_based) -> MaintainResult {
      Database db;
      DevicesPartsConfig config;
      DevicesPartsWorkload workload(&db, config);
      std::unique_ptr<Maintainer> id;
      std::unique_ptr<TupleIvm> tuple;
      if (id_based) {
        id = std::make_unique<Maintainer>(
            &db, CompileView("vp", workload.AggViewPlan(), db));
      } else {
        tuple = std::make_unique<TupleIvm>(&db, "vp",
                                           workload.AggViewPlan());
      }
      ModificationLogger logger(&db);
      workload.ApplyMixedChanges(&logger, mix.inserts, mix.deletes,
                                 mix.updates);
      db.stats().Reset();
      return id_based ? id->Maintain(logger.NetChanges())
                      : tuple->Maintain(logger.NetChanges());
    };
    const MaintainResult id = run(true);
    const MaintainResult tuple = run(false);
    const double id_acc =
        static_cast<double>(id.TotalAccesses().TotalAccesses());
    const double tuple_acc =
        static_cast<double>(tuple.TotalAccesses().TotalAccesses());
    // Estimate a and k from the measurements for the bound.
    const double n = 200;
    const double a = static_cast<double>(
                         tuple.diff_computation.accesses.TotalAccesses()) /
                     n;
    const double k = static_cast<double>(
                         id.cache_update.accesses.tuple_writes) /
                     n;
    char label[40];
    std::snprintf(label, sizeof(label), "%lld/%lld/%lld",
                  static_cast<long long>(mix.inserts),
                  static_cast<long long>(mix.deletes),
                  static_cast<long long>(mix.updates));
    std::printf("%-22s %10.0f %12.0f %9.2fx %14.2f\n", label, id_acc,
                tuple_acc, tuple_acc / id_acc, InsertBoundSpeedup(a, k));
  }
  std::printf(
      "\nReading: pure updates give the Fig. 12 speedup; as inserts take "
      "over, the ratio falls toward the bounded a/(a+k) region — \"even "
      "this loss is bounded and we expect it to not be significant in "
      "practice\" (Sec. 6.2).\n");

  // ---- Multi-view workload: parallel Refresh wall-clock comparison ----
  // All eight BSMA views registered in one ViewManager, maintained from the
  // same net changes. threads=1 is the sequential baseline; --threads N
  // runs one view per worker. Access counts must be identical (arenas are
  // published in definition order); wall-clock speedup depends on hardware
  // parallelism, so the available core count is printed alongside.
  auto refresh_once = [](int t, double* seconds) -> int64_t {
    Database db;
    BsmaConfig config;
    config.users = 1000;
    BsmaWorkload workload(&db, config);
    ViewManager manager(&db);
    for (const std::string& view : BsmaWorkload::ViewNames()) {
      manager.DefineView(view, workload.ViewPlan(view));
    }
    workload.ApplyUserUpdates(&manager.logger(), 100);
    db.stats().Reset();
    const auto start = std::chrono::steady_clock::now();
    manager.Refresh(RefreshOptions{.threads = t});
    const auto end = std::chrono::steady_clock::now();
    *seconds = std::chrono::duration<double>(end - start).count();
    return db.stats().TotalAccesses();
  };
  double seq_seconds = 0;
  double par_seconds = 0;
  const int64_t seq_acc = refresh_once(1, &seq_seconds);
  const int64_t par_acc = refresh_once(threads, &par_seconds);
  std::printf(
      "\nMulti-view refresh (8 BSMA views, 100 update diffs, %d hardware "
      "threads):\n",
      ThreadPool::HardwareThreads());
  std::printf("  threads=1: %8.2f ms  accesses=%lld\n", seq_seconds * 1000.0,
              static_cast<long long>(seq_acc));
  std::printf("  threads=%d: %8.2f ms  accesses=%lld  (wall-clock %.2fx, "
              "accesses %s)\n",
              threads, par_seconds * 1000.0,
              static_cast<long long>(par_acc),
              par_seconds > 0 ? seq_seconds / par_seconds : 0.0,
              seq_acc == par_acc ? "identical" : "MISMATCH");
  flags.WriteOutputs();
  return seq_acc == par_acc ? 0 : 1;
}
