// Recovery bench: how much do ∆-scripts buy at restart time?
//
// For each WAL-tail length, builds a BSMA instance with the Fig. 9b views,
// snapshots it, journals the tail in COMMIT-delimited refresh batches, then
// "crashes" and recovers twice from the same snapshot + WAL:
//   replay     — roll the views forward through the compiled ∆-scripts;
//   recompute  — apply base changes only, then recompute every view.
// Both are reported in wall-clock AND the Section 6 cost-model unit
// (tuple accesses + index lookups), and the replayed views are checked
// byte-identical to the recomputed ones — the bench exits non-zero on any
// divergence, so CI can use it as a smoke test.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/core/view_manager.h"
#include "src/persist/recovery.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal_set.h"
#include "src/workload/bsma.h"

int main(int argc, char** argv) {
  using namespace idivm;
  using namespace idivm::bench;
  using namespace idivm::persist;

  int users = 300;
  int mods = 1000;
  int commit_every = 100;
  std::string wal_dir;
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (flags.Match(argc, argv, &i)) {
    } else if (std::strcmp(argv[i], "--users") == 0) {
      users = ParsePositiveIntFlag("--users",
                                   FlagValue("--users", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--mods") == 0) {
      mods = ParsePositiveIntFlag("--mods",
                                  FlagValue("--mods", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--commit-every") == 0) {
      commit_every = ParsePositiveIntFlag(
          "--commit-every", FlagValue("--commit-every", argc, argv, &i));
    } else if (std::strcmp(argv[i], "--wal-dir") == 0) {
      wal_dir = FlagValue("--wal-dir", argc, argv, &i);
    } else {
      FlagError(argv[i],
                "is not recognized (supported: --users --mods --commit-every "
                "--threads --wal-dir --trace-out --metrics-out)");
    }
  }
  flags.Install();
  const int threads = flags.threads;
  // Without an explicit --wal-dir, scratch space is RAII-owned: every exit
  // path below (including the non-zero smoke failures) removes it.
  std::optional<ScratchDir> scratch;
  if (wal_dir.empty()) {
    scratch.emplace("bench-recovery");
    wal_dir = scratch->path();
  } else {
    struct stat st{};
    if (stat(wal_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
      FlagError("--wal-dir", "must name an existing directory");
    }
  }

  BsmaConfig config;
  config.users = users;
  const std::vector<std::string>& views = BsmaWorkload::ViewNames();

  std::printf("\nRecovery: snapshot + WAL replay via ∆-scripts vs view "
              "recompute\n");
  std::printf("users=%d, %zu views, commit every %d mods, "
              "replay threads=%d (of %d hardware), dir=%s\n\n",
              users, views.size(), commit_every, threads,
              ThreadPool::HardwareThreads(), wal_dir.c_str());
  std::printf("%-8s %-8s %12s %10s %12s %10s %12s %9s\n", "tail", "batches",
              "replay-acc", "replay-ms", "recomp-acc", "recomp-ms",
              "speedup-acc", "match");

  bool all_match = true;
  for (const int tail : {mods / 10, mods / 3, mods}) {
    if (tail < 1) continue;
    // -- The pre-crash run: snapshot, then journal `tail` modifications.
    const std::string snap = wal_dir + "/bench.snap";
    // SegmentedWal::Open resumes a log it finds, so each tail journals
    // into an emptied directory.
    const std::string log_dir = wal_dir + "/bench.wal";
    std::error_code ec;
    std::filesystem::remove_all(log_dir, ec);
    std::filesystem::create_directory(log_dir, ec);
    Database db;
    BsmaWorkload workload(&db, config);
    ViewManager manager(&db);
    for (const std::string& view : views) {
      manager.DefineView(view, workload.ViewPlan(view));
    }
    auto wal = SegmentedWal::Open(log_dir);
    if (wal == nullptr) {
      std::fprintf(stderr, "error: cannot open WAL at %s\n", log_dir.c_str());
      return 1;
    }
    const std::string snap_error =
        WriteSnapshot(db, manager.SerializeRepository(), 0, snap);
    if (!snap_error.empty()) {
      std::fprintf(stderr, "error: %s\n", snap_error.c_str());
      return 1;
    }
    manager.set_journal(wal.get());
    int batches = 0;
    for (int done = 0; done < tail; done += commit_every) {
      workload.ApplyUserUpdates(&manager.logger(),
                                std::min(commit_every, tail - done));
      manager.Refresh();
      ++batches;
    }
    wal->Sync();
    wal.reset();

    // -- Crash. Recover the same state both ways.
    Database replayed;
    ViewManager vm_replay(&replayed);
    const RecoverResult replay =
        Recover(&replayed, &vm_replay, snap, log_dir,
                RecoverOptions{.mode = RecoverMode::kReplay,
                               .threads = threads});
    Database recomputed;
    ViewManager vm_recompute(&recomputed);
    const RecoverResult recompute =
        Recover(&recomputed, &vm_recompute, snap, log_dir,
                RecoverOptions{.mode = RecoverMode::kRecompute});
    if (!replay.ok || !recompute.ok) {
      std::fprintf(stderr, "error: recovery failed: %s%s\n",
                   replay.error.c_str(), recompute.error.c_str());
      return 1;
    }

    // -- The smoke check: replayed views byte-identical to recomputed.
    bool match = replay.last_applied_lsn == recompute.last_applied_lsn;
    for (const std::string& view : views) {
      if (!replayed.GetTable(view).SnapshotUncounted().BagEquals(
              recomputed.GetTable(view).SnapshotUncounted())) {
        std::fprintf(stderr, "DIVERGENCE: view %s after replay != "
                             "recompute (tail=%d)\n",
                     view.c_str(), tail);
        match = false;
      }
    }
    all_match = all_match && match;

    std::printf("%-8d %-8d %12lld %10.2f %12lld %10.2f %11.2fx %9s\n", tail,
                batches,
                static_cast<long long>(replay.accesses.TotalAccesses()),
                replay.seconds * 1000.0,
                static_cast<long long>(recompute.accesses.TotalAccesses()),
                recompute.seconds * 1000.0,
                static_cast<double>(recompute.accesses.TotalAccesses()) /
                    static_cast<double>(
                        std::max<int64_t>(replay.accesses.TotalAccesses(), 1)),
                match ? "yes" : "NO");
  }
  flags.WriteOutputs();
  if (!all_match) {
    std::fprintf(stderr, "\nFAIL: replayed state diverges from recompute\n");
    return 1;
  }
  std::printf("\nAll recovered views byte-identical to recompute.\n");
  return 0;
}
