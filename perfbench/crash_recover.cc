// crash_recover: the only workload on the persist layer's read path. Set-up
// snapshots the engine with WriteSnapshot, then journals a tail of update
// batches through a SegmentedWal with one TryRefresh per batch, and tears
// the last record (the final batch's COMMIT). The measured loop recovers
// (snapshot load, WAL scan, replay through the ∆-scripts) into a fresh
// database again and again from the same bytes.
//
// Gate: every recovery must end exactly at the last intact COMMIT — views
// and `user` equal to their fingerprints taken then, the torn batch absent.

#include <filesystem>

#include "perfbench/harness.h"
#include "src/persist/recovery.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal_set.h"

namespace perfbench {

using idivm::AccessStats;
using idivm::BsmaWorkload;
using idivm::Database;
using idivm::ViewManager;

namespace {

// The journaled tail: batches of the service's default refresh threshold.
// Sixteen keep a recovery near 0.3 s, so a run makes dozens with speed
// readings close around each. With 100 a recovery took about 2 s, a run
// made six, and the scaled recovery time spread 16% (IQR over median, five
// seeds) against 2% with sixteen.
constexpr int kBatches = 16;
constexpr int kBatchSize = 64;
// Bytes cut off the end of the last segment: part of the final COMMIT.
constexpr uint64_t kTearBytes = 5;
// Recoveries a run makes even when --seconds is shorter.
constexpr int kMinRecoveries = 3;

// Fingerprints of every view and of `user`.
std::map<std::string, uint64_t> Fingerprints(const Database& db) {
  std::map<std::string, uint64_t> out;
  for (const std::string& view : BsmaWorkload::ViewNames()) {
    out[view] = TableFingerprint(db.GetTable(view));
  }
  out["user"] = TableFingerprint(db.GetTable("user"));
  return out;
}

}  // namespace

void RunCrashRecover(const RunOptions& options,
                     Clock::time_point process_start, Sheet* sheet) {
  namespace fs = std::filesystem;
  namespace persist = idivm::persist;
  SpanLog log(1);
  const std::string dir = options.work_dir + "/crash";
  const std::string snapshot_path = dir + "/snapshot.bin";
  const std::string wal_dir = dir + "/wal";

  std::vector<double> setup_s, generate_s, define_s, snapshot_write_s;
  std::vector<double> journaled_update_us, journaled_refresh_ms;
  std::map<std::string, uint64_t> committed;  // after the last intact COMMIT
  uint64_t torn_user = 0;                     // `user` after the torn batch
  double syncs_per_refresh = 0;
  uint64_t wal_bytes = 0;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const bool last = rep == kSetupRepetitions - 1;
    SpanLog* spans = options.trace && last ? &log : nullptr;
    fs::remove_all(dir);
    fs::create_directories(wal_dir);
    const Clock::time_point start = rep == 0 ? process_start : Clock::now();
    Engine engine = BuildEngine(spans);
    const Clock::time_point write_start = Clock::now();
    const std::string error = persist::WriteSnapshot(
        *engine.db, engine.vm->SerializeRepository(), 0, snapshot_path);
    const Clock::time_point write_end = Clock::now();
    if (!error.empty()) {
      sheet->GateFailed("WriteSnapshot failed: " + error);
      return;
    }
    if (spans != nullptr) {
      log.Add("WriteSnapshot", "persist", write_start, write_end, 0, 0);
    }
    snapshot_write_s.push_back(SecondsBetween(write_start, write_end));
    std::unique_ptr<persist::SegmentedWal> wal =
        persist::SegmentedWal::Open(wal_dir);
    if (wal == nullptr) {
      sheet->GateFailed("cannot open the WAL directory " + wal_dir);
      return;
    }
    engine.vm->set_journal(wal.get());
    const int64_t syncs_before =
        ReadRegistry().Counter("idivm_wal_syncs_total");
    // Fingerprinting is the gate's work, not set-up: its time is taken out.
    double gate_seconds = 0;
    UpdateStream stream(StreamSeed(options.seed, 4),
                        idivm::BsmaConfig{}.users);
    for (int batch = 0; batch < kBatches; ++batch) {
      for (int i = 0; i < kBatchSize; ++i) {
        const UserUpdate update = stream.Next();
        const Clock::time_point t0 = Clock::now();
        const bool ok = engine.vm->Update("user", UserKey(update),
                                          UserSetColumns(),
                                          UserValues(update));
        journaled_update_us.push_back(1e6 *
                                      SecondsBetween(t0, Clock::now()));
        if (!ok) sheet->GateFailed("a journaled update was rejected");
      }
      idivm::RefreshReport report;
      const Clock::time_point t0 = Clock::now();
      const idivm::Status status =
          engine.vm->TryRefresh(idivm::RefreshOptions{}, &report);
      const Clock::time_point t1 = Clock::now();
      journaled_refresh_ms.push_back(1e3 * SecondsBetween(t0, t1));
      if (spans != nullptr) log.Add("TryRefresh", "core", t0, t1, 0, 0);
      if (!status.ok() || !report.incidents.empty()) {
        sheet->GateFailed("a journaled refresh failed");
      }
      if (batch >= kBatches - 2) {
        const Clock::time_point g0 = Clock::now();
        if (batch == kBatches - 2) {
          committed = Fingerprints(*engine.db);
        } else {
          torn_user = TableFingerprint(engine.db->GetTable("user"));
        }
        gate_seconds += SecondsBetween(g0, Clock::now());
      }
    }
    wal->Sync();
    syncs_per_refresh =
        static_cast<double>(ReadRegistry().Counter("idivm_wal_syncs_total") -
                            syncs_before) /
        kBatches;
    wal_bytes = wal->TotalBytes();
    engine.vm->set_journal(nullptr);
    wal.reset();
    // Tear the final record, as a crash mid-append would.
    const persist::SegmentedReadResult segments =
        persist::ReadSegmentedWal(wal_dir);
    if (!segments.ok || segments.segments.empty()) {
      sheet->GateFailed("cannot read back the journaled WAL");
      return;
    }
    if (options.damage != "no-tear") {
      const persist::WalSegmentInfo& tail = segments.segments.back();
      fs::resize_file(tail.path, tail.bytes - kTearBytes);
    }
    ResetEngine(&engine);
    setup_s.push_back(SecondsBetween(start, Clock::now()) - gate_seconds);
    generate_s.push_back(engine.generate_seconds);
    define_s.push_back(engine.define_seconds);
  }

  // ---- Measured loop: recover from the same bytes, again and again ----
  std::vector<double> recover_s, load_s, scan_s;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> windows;
  SpeedProbe probe;
  std::vector<double> traced_s, untraced_s;
  persist::RecoverResult result;
  AccessStats ladder;
  const RegistryReading registry_before = ReadRegistry();
  const double cpu_before = CpuSeconds();
  probe.After(0);  // the first recovery's units right before it
  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point loop_end = Plus(loop_start, options.seconds);
  for (int64_t rep = 0; rep < kMinRecoveries || Clock::now() < loop_end;
       ++rep) {
    const bool traced = options.trace && rep % 2 == 0;
    const uint64_t rep_id = traced ? log.NewId() : 0;
    const Clock::time_point rep_start = Clock::now();
    if (traced) {
      // The read path's first two stages, each alone on the same bytes.
      Database loaded;
      const Clock::time_point t0 = Clock::now();
      const persist::SnapshotLoadResult load =
          persist::LoadSnapshotInto(&loaded, snapshot_path);
      const Clock::time_point t1 = Clock::now();
      const persist::SegmentedReadResult records =
          persist::ReadSegmentedWal(wal_dir);
      const Clock::time_point t2 = Clock::now();
      if (!load.ok || !records.ok) {
        sheet->GateFailed("snapshot load or WAL scan failed");
      }
      load_s.push_back(SecondsBetween(t0, t1));
      scan_s.push_back(SecondsBetween(t1, t2));
      log.Add("LoadSnapshotInto", "persist", t0, t1, rep_id, rep_id);
      log.Add("ReadSegmentedWal", "persist", t1, t2, rep_id, rep_id);
    }
    auto db = std::make_unique<Database>();
    auto vm = std::make_unique<ViewManager>(db.get());
    const Clock::time_point t0 = Clock::now();
    result = persist::Recover(db.get(), vm.get(), snapshot_path, wal_dir);
    const Clock::time_point t1 = Clock::now();
    const double seconds = SecondsBetween(t0, t1);
    recover_s.push_back(seconds);
    windows.emplace_back(t0, t1);
    if (options.trace) (traced ? traced_s : untraced_s).push_back(seconds);
    if (traced) {
      log.Add("Recover", "persist", t0, t1, rep_id, rep_id);
      log.Record(rep_id, "recovery", "workload", rep_start, t1, 0, rep_id);
    }
    sheet->Attempt();
    if (!result.ok) {
      sheet->Fail();
      sheet->GateFailed("Recover failed: " + result.error);
      break;
    }
    ladder += result.accesses;
    // The gate, outside the timed region: the recovery ends exactly at
    // the last intact COMMIT.
    const std::map<std::string, uint64_t> recovered = Fingerprints(*db);
    if (recovered != committed ||
        result.batches_applied != static_cast<size_t>(kBatches - 1)) {
      sheet->GateFailed("recovered state differs from the last intact "
                        "COMMIT (" +
                        std::to_string(result.batches_applied) +
                        " batches replayed)");
      break;
    }
    if (recovered.at("user") == torn_user) {
      sheet->GateFailed("the torn batch is visible after recovery");
      break;
    }
    vm.reset();
    db.reset();
    probe.After(seconds);
  }
  const double loop_seconds = SecondsBetween(loop_start, Clock::now());
  const double cpu_seconds = CpuSeconds() - cpu_before;
  const double peak_rss = PeakRssMiB();
  const RegistryReading registry_after = ReadRegistry();

  const double mods = static_cast<double>(result.modifications_applied);
  const double recovery = Median(recover_s);
  std::vector<double> recover_norm_s;
  for (size_t i = 0; i < recover_s.size(); ++i) {
    recover_norm_s.push_back(probe.AtReference(
        recover_s[i], windows[i].first, windows[i].second));
  }
  const double recovery_norm = Median(recover_norm_s);

  // ---- End-to-end ----
  sheet->Set("setup_s", Median(setup_s), "s");
  sheet->Set("latency_norm_ms", 1e3 * recovery_norm, "ms");
  sheet->Set("updates_norm_per_s", Ratio(mods, recovery_norm), "1/s");
  sheet->Set("e2e.updates_per_s", Ratio(mods, recovery), "1/s");
  sheet->Set("e2e.recovery_p10_ms", 1e3 * Percentile(recover_s, 0.10),
             "ms");
  ReportAccesses(result.accesses, mods, sheet);
  sheet->Set("peak_rss_mb", peak_rss, "MiB");
  sheet->Set("e2e.recovery_s", recovery, "s");
  sheet->Set("e2e.recoveries", static_cast<double>(recover_s.size()),
             "count");

  // ---- Per layer ----
  sheet->Set("workload.generate_s", Median(generate_s), "s");
  sheet->Set("workload.probe_unit_us_p50", 1e6 * probe.MedianUnitSeconds(),
             "us");
  sheet->Set("core.define_view_s", Median(define_s), "s");
  ReportLadder(ladder, sheet);
  const int64_t replays = static_cast<int64_t>(recover_s.size());
  ReportUndoAndExec(
      registry_before, registry_after,
      replays * static_cast<int64_t>(result.batches_applied),
      replays * static_cast<int64_t>(result.modifications_applied), sheet);
  sheet->Set("persist.snapshot_write_s", Median(snapshot_write_s), "s");
  sheet->Set("persist.journaled_update_us_p50", Median(journaled_update_us),
             "us");
  sheet->Set("persist.journaled_refresh_ms_p50",
             Median(journaled_refresh_ms), "ms");
  sheet->Set("persist.wal_syncs_per_refresh", syncs_per_refresh, "count");
  sheet->Set("persist.wal_live_bytes_max", static_cast<double>(wal_bytes),
             "B");
  sheet->Set("persist.replayed_batches",
             static_cast<double>(result.batches_applied), "count");
  sheet->Set("persist.replayed_mods", mods, "count");
  sheet->Set("process.cpu_share", cpu_seconds / loop_seconds, "cores");
  if (options.trace) {
    sheet->Set("persist.snapshot_load_s", Median(load_s), "s");
    sheet->Set("persist.wal_scan_s", Median(scan_s), "s");
    sheet->Set("persist.replay_s",
               recovery - Median(load_s) - Median(scan_s), "s");
    sheet->Set("trace.overhead_ratio",
               Ratio(Median(traced_s), Median(untraced_s)), "ratio");
    FinishTrace(options, {&log}, process_start, sheet);
  }
  fs::remove_all(dir);
}

}  // namespace perfbench
