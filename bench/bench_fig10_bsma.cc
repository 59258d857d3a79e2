// Figure 10 — speedup of ID-based over tuple-based IVM on the extended BSMA
// social-analytics workload: views Q7, Q10, Q11, Q15, Q18 (BSMA queries,
// minimally extended) plus Q*1, Q*2, Q*3 (aggregates affected by the
// updates), maintained after 100 update diffs on user.tweetsnum/favornum.
//
// Paper speedups: Q7:29x  Q10:54x  Q11:26x  Q15:4x  Q18:14x
//                 Q*1:26x  Q*2:7x  Q*3:9x
// (Q10/Q*1 benefit from long join chains; Q15's large view update dominates
// both engines, shrinking its ratio.)

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/view_manager.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"
#include "src/tivm/tuple_ivm.h"
#include "src/workload/bsma.h"

namespace {

// Chaos mode: maintain every BSMA view through the fault-isolated
// TryRefresh path with random fault injection, and report how far down the
// degradation ladder each incident went. Exercises the exact rollback /
// retry / recompute / quarantine machinery the chaos tests assert on, at
// bench scale.
int RunChaosMode(const idivm::BsmaConfig& config, int64_t updates,
                 int threads, double fault_rate, idivm::DegradePolicy policy,
                 int64_t max_epoch_ops) {
  using namespace idivm;
  Database db;
  BsmaWorkload workload(&db, config);
  ViewManager vm(&db);
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    vm.DefineView(view, workload.ViewPlan(view));
  }
  workload.ApplyUserUpdates(&vm.logger(), updates);

  FaultPlan plan;
  plan.rate = fault_rate;
  plan.seed = 20260805;
  FaultInjector injector(plan);
  RefreshOptions options;
  options.script_threads = threads;
  options.degrade = policy;
  options.fault = &injector;
  options.max_epoch_ops = max_epoch_ops;

  db.stats().Reset();
  RefreshReport report;
  const Status status = vm.TryRefresh(options, &report);

  std::printf("\nChaos refresh: fault rate %.3f, policy %s, %lld update "
              "diffs, %zu views\n",
              fault_rate, DegradePolicyName(policy),
              static_cast<long long>(updates),
              BsmaWorkload::ViewNames().size());
  std::printf("status: %s\n", status.ToString().c_str());
  std::printf("fault sites visited %llu, faults fired %llu\n",
              static_cast<unsigned long long>(injector.sites_visited()),
              static_cast<unsigned long long>(injector.faults_fired()));
  const AccessStats& stats = db.stats();
  std::printf("ladder: rollbacks=%lld retries=%lld recomputes=%lld "
              "quarantines=%lld\n",
              static_cast<long long>(stats.epoch_rollbacks),
              static_cast<long long>(stats.degraded_retries),
              static_cast<long long>(stats.recompute_fallbacks),
              static_cast<long long>(stats.quarantines));
  for (const ViewIncident& incident : report.incidents) {
    std::printf("  incident: view=%-4s rung=%d recovered=%s error=%s\n",
                incident.view.c_str(), incident.rung,
                incident.recovered ? "yes" : "no",
                incident.error.ToString().c_str());
  }
  for (const std::string& view : vm.QuarantinedViews()) {
    std::printf("  quarantined: %s (repairing)\n", view.c_str());
    vm.RepairView(view);
  }
  return status.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace idivm;

  int users = 0;  // 0 = BsmaConfig default
  double fault_rate = 0.0;
  DegradePolicy policy = DegradePolicy::kQuarantine;
  int64_t max_epoch_ops = 0;
  bench::BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (flags.Match(argc, argv, &i)) {
    } else if (std::strcmp(argv[i], "--users") == 0) {
      users = bench::ParsePositiveIntFlag(
          "--users", bench::FlagValue("--users", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--inject-fault-rate") == 0) {
      fault_rate = bench::ParseRateFlag(
          "--inject-fault-rate",
          bench::FlagValue("--inject-fault-rate", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--degrade-policy") == 0) {
      policy = bench::ParseDegradePolicyFlag(
          "--degrade-policy",
          bench::FlagValue("--degrade-policy", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--max-epoch-ops") == 0) {
      max_epoch_ops = bench::ParseNonNegativeInt64Flag(
          "--max-epoch-ops",
          bench::FlagValue("--max-epoch-ops", argc, argv, &i));
    } else {
      bench::FlagError(argv[i],
                       "is not recognized (supported: --threads N, "
                       "--users N, --inject-fault-rate R, "
                       "--degrade-policy P, --max-epoch-ops N, "
                       "--trace-out PATH, --metrics-out PATH)");
    }
  }
  flags.Install();
  const int threads = flags.threads;

  BsmaConfig config;  // defaults: 2000 users, paper table ratios
  if (users > 0) config.users = users;
  const int64_t kUpdates = 100;

  if (fault_rate > 0.0 || max_epoch_ops > 0) {
    const int exit_code = RunChaosMode(config, kUpdates, threads,
                                       fault_rate, policy, max_epoch_ops);
    flags.WriteOutputs();
    return exit_code;
  }

  std::printf("\nFigure 10: BSMA social analytics, %lld user-attribute "
              "update diffs\n",
              static_cast<long long>(kUpdates));
  std::printf("users=%lld (tables scaled at the paper's ratios); ∆-script "
              "threads=%d (of %d hardware)\n\n",
              static_cast<long long>(config.users), threads,
              ThreadPool::HardwareThreads());
  std::printf("%-5s %-46s %12s %12s %9s %9s %10s %8s\n", "view",
              "description", "ID-acc", "Tuple-acc", "ID-ms", "Tuple-ms",
              "speedup", "paper");

  const std::map<std::string, std::string> paper = {
      {"q7", "29x"},  {"q10", "54x"}, {"q11", "26x"}, {"q15", "4x"},
      {"q18", "14x"}, {"qs1", "26x"}, {"qs2", "7x"},  {"qs3", "9x"}};

  for (const std::string& view : BsmaWorkload::ViewNames()) {
    MaintainResult id_result;
    MaintainResult tuple_result;
    {
      Database db;
      BsmaWorkload workload(&db, config);
      // Compile under the BSMA name so trace spans ("epoch q10") and the
      // per-rule counters (view="q10") identify the view, not a generic "v".
      Maintainer m(&db, CompileView(view, workload.ViewPlan(view), db));
      ModificationLogger logger(&db);
      workload.ApplyUserUpdates(&logger, kUpdates);
      db.stats().Reset();
      id_result = m.Maintain(logger.NetChanges(),
                             MaintainOptions{.threads = threads});
    }
    {
      Database db;
      BsmaWorkload workload(&db, config);
      TupleIvm tivm(&db, view, workload.ViewPlan(view));
      ModificationLogger logger(&db);
      workload.ApplyUserUpdates(&logger, kUpdates);
      db.stats().Reset();
      tuple_result = tivm.Maintain(logger.NetChanges());
    }
    const double id_acc =
        static_cast<double>(id_result.TotalAccesses().TotalAccesses());
    const double tuple_acc =
        static_cast<double>(tuple_result.TotalAccesses().TotalAccesses());
    std::printf("%-5s %-46s %12.0f %12.0f %9.2f %9.2f %9.1fx %8s\n",
                view.c_str(), BsmaWorkload::Describe(view).c_str(), id_acc,
                tuple_acc, id_result.TotalSeconds() * 1000.0,
                tuple_result.TotalSeconds() * 1000.0,
                id_acc > 0 ? tuple_acc / id_acc : 0.0,
                paper.at(view).c_str());
  }
  flags.WriteOutputs();
  return 0;
}
