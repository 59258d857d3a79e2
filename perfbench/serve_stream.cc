// serve_stream: the MaintenanceService at its default ServiceOptions
// (block policy, segmented WAL fsynced on commit, snapshot housekeeping, no
// exporter) with snapshot reads enabled before Start. One producer thread
// submits the update stream in an open loop at a fixed rate, about a third
// of what the service can absorb; one reader thread runs a closed loop of
// OpenSnapshot plus a scan of one view, rotating over the eight. This is
// the only workload where the serve layer, the WAL's write path and MVCC
// run, and where writes happen beside reads.
//
// Gates: every view equals recomputation after the run, and every read
// matches the live contents the engine had at the epoch it read. The
// second gate rebuilds those contents afterwards: `user` is versioned too,
// so each snapshot names the prefix of the stream it reflects, and a
// second engine replays the stream, refreshing at each prefix a reader saw.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "perfbench/harness.h"
#include "src/mvcc/snapshot.h"
#include "src/serve/service.h"

namespace perfbench {

using idivm::AccessStats;
using idivm::BsmaWorkload;
using idivm::Row;
using idivm::serve::MaintenanceService;
using idivm::serve::ServiceOptions;
using idivm::serve::ServiceStats;

namespace {

// Open-loop submission rate. The service refreshes once 64 updates are
// pending or the oldest has waited 50 ms; at this rate every refresh is
// the 50 ms one (about 26 updates, about 20 ms of work with the MVCC flip),
// so batch boundaries do not depend on how long refreshes take and the
// pump idles most of the time. At 1000/s refreshes straddled the 50 ms
// interval and staleness flipped between two regimes from run to run.
constexpr double kRatePerSecond = 500;
// Longest drain after the paced phase before the run counts the backlog
// as growing.
constexpr double kMaxQuiesceSeconds = 1.0;
// The producer times a speed-probe unit (SpeedProbe) after every
// kProbeEvery-th submission, when the next is at least 1 ms away.
constexpr uint64_t kProbeEvery = 4;

struct Observation {
  uint32_t view = 0;
  uint64_t epoch = 0;
  uint64_t fingerprint = 0;
};

struct Reader {
  explicit Reader(int lane) : log(lane) {}
  SpanLog log;
  std::vector<double> read_us;
  std::vector<double> open_us, scan_us;  // traced reads
  std::vector<double> traced_us, untraced_us;
  std::vector<Observation> seen;
  // Fingerprint of `user` in the first snapshot seen at each epoch.
  std::map<uint64_t, uint64_t> user_fingerprint;
  int64_t rows = 0;
};

void ReadLoop(const idivm::ViewManager& vm, bool trace, size_t first_view,
              const std::atomic<bool>& stop, Reader* out) {
  const std::vector<std::string>& views = BsmaWorkload::ViewNames();
  size_t next = first_view;
  for (uint64_t read = 1; !stop.load(std::memory_order_acquire); ++read) {
    // Whole rotations alternate between traced and untraced, so both
    // halves read every view.
    const bool traced = trace && (read / views.size()) % 2 == 0;
    const size_t view = next;
    next = (next + 1) % views.size();
    const Clock::time_point start = Clock::now();
    const idivm::mvcc::Snapshot snapshot = vm.OpenSnapshot();
    const Clock::time_point opened = traced ? Clock::now() : start;
    const idivm::Relation rows = snapshot.Read(views[view]).Scan();
    const Clock::time_point end = Clock::now();
    const double micros = 1e6 * SecondsBetween(start, end);
    out->read_us.push_back(micros);
    if (trace) (traced ? out->traced_us : out->untraced_us).push_back(micros);
    if (traced) {
      const uint64_t id = out->log.NewId();
      out->log.Add("OpenSnapshot", "mvcc", start, opened, id, read);
      out->log.Add("Scan", "mvcc", opened, end, id, read);
      out->log.Record(id, "read", "workload", start, end, 0, read);
      out->open_us.push_back(1e6 * SecondsBetween(start, opened));
      out->scan_us.push_back(1e6 * SecondsBetween(opened, end));
    }
    out->rows += static_cast<int64_t>(rows.size());
    out->seen.push_back(Observation{static_cast<uint32_t>(view),
                                    snapshot.epoch(), Fingerprint(rows)});
    if (out->user_fingerprint.count(snapshot.epoch()) == 0) {
      uint64_t sum = 0;
      snapshot.Read("user").ForEachRow(
          [&](const Row& row) { sum += RowHash(row); });
      out->user_fingerprint[snapshot.epoch()] = sum;
    }
  }
}

// Fingerprints of `user` after each prefix of the accepted stream:
// prefix[k] is the table after the first k updates.
std::vector<uint64_t> PrefixFingerprints(const idivm::Relation& user,
                                         const std::vector<UserUpdate>& ops) {
  const idivm::Schema& schema = user.schema();
  const size_t uid_column = schema.ColumnIndex("uid");
  const std::vector<size_t> set_columns =
      schema.ColumnIndices(UserSetColumns());
  std::vector<Row> rows = user.rows();
  std::map<int64_t, size_t> slot;
  for (size_t i = 0; i < rows.size(); ++i) {
    slot[rows[i][uid_column].AsInt64()] = i;
  }
  uint64_t sum = 0;
  for (const Row& row : rows) sum += RowHash(row);
  std::vector<uint64_t> prefix = {sum};
  prefix.reserve(ops.size() + 1);
  for (const UserUpdate& op : ops) {
    Row& row = rows[slot.at(op.uid)];
    sum -= RowHash(row);
    const Row values = UserValues(op);
    for (size_t i = 0; i < set_columns.size(); ++i) {
      row[set_columns[i]] = values[i];
    }
    sum += RowHash(row);
    prefix.push_back(sum);
  }
  return prefix;
}

// The read gate. Maps each epoch a reader saw to the stream prefix its
// `user` version shows, replays the stream on a fresh engine refreshing
// at each of those prefixes, and compares every read with the live view.
void CheckReads(const Reader& reader, const std::vector<uint64_t>& prefix,
                const std::vector<UserUpdate>& ops, bool damage,
                Sheet* sheet) {
  std::map<uint64_t, size_t> prefix_at;  // epoch -> updates it reflects
  size_t cursor = 0;
  for (const auto& [epoch, fingerprint] : reader.user_fingerprint) {
    while (cursor < prefix.size() && prefix[cursor] != fingerprint) ++cursor;
    if (cursor == prefix.size()) {
      sheet->GateFailed("snapshot epoch " + std::to_string(epoch) +
                        " shows a user table no prefix of the stream makes");
      return;
    }
    prefix_at[epoch] = cursor;
  }
  std::vector<Observation> seen = reader.seen;
  std::sort(seen.begin(), seen.end(),
            [](const Observation& a, const Observation& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch : a.view < b.view;
            });

  Engine verifier = BuildEngine(nullptr);
  if (damage) {
    std::printf("damage: deleted a row of the verifier's view %s\n",
                DamageOneView(verifier.db.get(), verifier.vm.get()).c_str());
  }
  const std::vector<std::string>& views = BsmaWorkload::ViewNames();
  size_t applied = 0;
  int64_t torn = 0;
  size_t i = 0;
  while (i < seen.size()) {
    const uint64_t epoch = seen[i].epoch;
    const size_t target = prefix_at.at(epoch);
    if (target > applied) {
      for (; applied < target; ++applied) {
        const UserUpdate& op = ops[applied];
        (void)verifier.vm->Update("user", UserKey(op), UserSetColumns(),
                                  UserValues(op));
      }
      idivm::RefreshReport report;
      (void)verifier.vm->TryRefresh(idivm::RefreshOptions{}, &report);
    }
    for (; i < seen.size() && seen[i].epoch == epoch;) {
      const uint32_t view = seen[i].view;
      const uint64_t live =
          TableFingerprint(verifier.db->GetTable(views[view]));
      for (; i < seen.size() && seen[i].epoch == epoch &&
             seen[i].view == view;
           ++i) {
        if (seen[i].fingerprint != live) ++torn;
      }
    }
  }
  if (torn > 0) {
    sheet->GateFailed(std::to_string(torn) + " of " +
                      std::to_string(seen.size()) +
                      " snapshot reads differ from the live view at their "
                      "epoch");
  }
  sheet->Set("e2e.epochs_checked", static_cast<double>(prefix_at.size()),
             "count");
}

}  // namespace

void RunServeStream(const RunOptions& options,
                    Clock::time_point process_start, Sheet* sheet) {
  namespace fs = std::filesystem;
  SpanLog log(1);
  SpanLog* spans = options.trace ? &log : nullptr;

  std::vector<double> setup_s, generate_s, define_s, start_s;
  Engine engine;
  std::unique_ptr<MaintenanceService> service;
  AccessStats stats_before;
  std::string data_dir;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (service != nullptr) service->Stop();
    service.reset();
    ResetEngine(&engine);
    if (!data_dir.empty()) fs::remove_all(data_dir);
    data_dir = options.work_dir + "/serve-" + std::to_string(rep);
    fs::remove_all(data_dir);

    const bool last = rep == kSetupRepetitions - 1;
    const Clock::time_point start = rep == 0 ? process_start : Clock::now();
    engine = BuildEngine(last ? spans : nullptr);
    engine.vm->EnableSnapshotReads();
    engine.vm->TrackTableForSnapshots("user");
    ServiceOptions service_options;
    service_options.data_dir = data_dir;
    service = std::make_unique<MaintenanceService>(
        engine.vm.get(), engine.db.get(), service_options);
    stats_before = engine.db->stats();
    std::string error;
    const Clock::time_point start_call = Clock::now();
    if (!service->Start(&error)) {
      sheet->GateFailed("service start failed: " + error);
      return;
    }
    const Clock::time_point end = Clock::now();
    if (last && spans != nullptr) {
      log.Add("Start", "serve", start_call, end, 0, 0);
    }
    setup_s.push_back(SecondsBetween(start, end));
    start_s.push_back(SecondsBetween(start_call, end));
    generate_s.push_back(engine.generate_seconds);
    define_s.push_back(engine.define_seconds);
  }
  idivm::ViewManager& vm = *engine.vm;
  // The stream's starting point, read the only way another thread may
  // while the pump owns the engine (and released at once, so it pins no
  // version during the run).
  const idivm::Relation initial_user = vm.OpenSnapshot().Read("user").Scan();

  // ---- Measured phase: paced producer (this thread) and one reader ----
  const RegistryReading registry_before = ReadRegistry();
  const double cpu_before = CpuSeconds();
  std::atomic<bool> stop_reader{false};
  Reader reader(2);
  std::thread reader_thread(ReadLoop, std::cref(vm), options.trace,
                            static_cast<size_t>(StreamSeed(options.seed, 3) %
                                                BsmaWorkload::ViewNames()
                                                    .size()),
                            std::cref(stop_reader), &reader);
  // The traced run samples the WAL's size off the producer thread:
  // stats() waits for the pump's lock, which a paced producer must not.
  std::atomic<bool> stop_monitor{false};
  uint64_t wal_bytes_max = 0;
  std::thread monitor;
  if (options.trace) {
    monitor = std::thread([&] {
      while (!stop_monitor.load(std::memory_order_acquire)) {
        wal_bytes_max = std::max(wal_bytes_max, service->stats().wal_bytes);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  UpdateStream stream(StreamSeed(options.seed, 2),
                      idivm::BsmaConfig{}.users);
  std::vector<UserUpdate> accepted;
  std::vector<double> late_ms, submit_ms, submit_us, depth;
  int64_t refused = 0;
  SpeedProbe probe;
  const Clock::time_point paced_start = Clock::now();
  const Clock::time_point paced_end = Plus(paced_start, options.seconds);
  for (uint64_t op = 1;; ++op) {
    const Clock::time_point due =
        Plus(paced_start, static_cast<double>(op - 1) / kRatePerSecond);
    if (due >= paced_end) break;
    const UserUpdate update = stream.Next();
    std::this_thread::sleep_until(due);
    const Clock::time_point start = Clock::now();
    const bool ok = service->SubmitUpdate("user", UserKey(update),
                                          UserSetColumns(),
                                          UserValues(update));
    const Clock::time_point end = Clock::now();
    depth.push_back(static_cast<double>(service->queue().depth()));
    late_ms.push_back(1e3 * SecondsBetween(due, start));
    submit_ms.push_back(1e3 * SecondsBetween(due, end));
    const double micros = 1e6 * SecondsBetween(start, end);
    submit_us.push_back(micros);
    if (options.trace && op % 2 == 0) {
      const uint64_t id = log.NewId();
      log.Add("SubmitUpdate", "serve", start, end, id, op);
      log.Record(id, "op", "workload", due, end, 0, op);
    }
    sheet->Attempt();
    if (ok) {
      accepted.push_back(update);
    } else {
      ++refused;
      sheet->Fail();
    }
    const Clock::time_point next_due = Plus(due, 1 / kRatePerSecond);
    if (op % kProbeEvery == 0 &&
        SecondsBetween(Clock::now(), next_due) >= 1e-3) {
      probe.After(0);
    }
  }
  const Clock::time_point quiesce_start = Clock::now();
  const bool drained = service->WaitForQuiesce(30.0);
  const Clock::time_point quiesce_end = Clock::now();
  if (spans != nullptr) {
    log.Add("WaitForQuiesce", "serve", quiesce_start, quiesce_end, 0, 0);
  }
  stop_reader.store(true, std::memory_order_release);
  reader_thread.join();
  stop_monitor.store(true, std::memory_order_release);
  if (monitor.joinable()) monitor.join();
  const double quiesce_s = SecondsBetween(quiesce_start, quiesce_end);
  const double measured_s = SecondsBetween(paced_start, quiesce_end);
  const ServiceStats stats = service->stats();
  const std::vector<double> staleness = service->StalenessSamples();
  const uint64_t shed = service->queue().shed();
  const RegistryReading registry_after = ReadRegistry();
  const double cpu_seconds = CpuSeconds() - cpu_before;
  const double peak_rss = PeakRssMiB();
  service->Stop();
  service.reset();
  const AccessStats delta = engine.db->stats() - stats_before;

  if (!drained) {
    sheet->GateFailed("the service did not drain its backlog in 30 s");
  } else if (quiesce_s > kMaxQuiesceSeconds) {
    sheet->GateFailed("backlog grew: draining took " +
                      std::to_string(quiesce_s) + " s");
  }
  // Refreshes that failed, tripped the ladder or hit the deadline, and ops
  // the pump rejected, count against the run (shed ops already did, as
  // SubmitUpdate returned false).
  sheet->Attempt(static_cast<int64_t>(stats.refreshes));
  sheet->Fail(static_cast<int64_t>(stats.refresh_failures + stats.incidents +
                                   stats.deadline_trips + stats.ops_rejected));

  std::vector<double> staleness_ms;
  for (const double seconds : staleness) staleness_ms.push_back(1e3 * seconds);
  const double applied = static_cast<double>(stats.ops_applied);
  const double refreshes = static_cast<double>(stats.refreshes);
  auto counter_delta = [&](const char* name) {
    return static_cast<double>(registry_after.Counter(name) -
                               registry_before.Counter(name));
  };

  // ---- End-to-end ----
  sheet->Set("setup_s", Median(setup_s), "s");
  // Staleness samples carry no time, so the whole run's speed reading
  // scales them. The rate is the producer's while the service keeps up,
  // at any machine speed, so it is not scaled.
  sheet->Set("latency_norm_ms",
             1e3 * probe.AtReference(
                       1e-3 * Percentile(staleness_ms, 0.10)),
             "ms");
  sheet->Set("updates_norm_per_s", applied / measured_s, "1/s");
  sheet->Set("e2e.staleness_p10_ms", Percentile(staleness_ms, 0.10), "ms");
  sheet->Set("e2e.updates_per_s", applied / measured_s, "1/s");
  ReportAccesses(delta, applied, sheet);
  sheet->Set("peak_rss_mb", peak_rss, "MiB");
  sheet->Set("e2e.staleness_p50_ms", Median(staleness_ms), "ms");
  sheet->SetTail("e2e.staleness_p99_ms", staleness_ms, 0.99, "ms");
  sheet->Set("e2e.staleness_samples", static_cast<double>(staleness.size()),
             "count");
  sheet->SetTail("e2e.submit_p99_ms", submit_ms, 0.99, "ms");
  sheet->Set("e2e.read_p50_us", Median(reader.read_us), "us");
  sheet->SetTail("e2e.read_p99_us", reader.read_us, 0.99, "us");
  sheet->Set("e2e.reads", static_cast<double>(reader.read_us.size()),
             "count");

  // ---- Per layer ----
  sheet->Set("workload.generate_s", Median(generate_s), "s");
  sheet->Set("workload.probe_unit_us_p50", 1e6 * probe.MedianUnitSeconds(),
             "us");
  sheet->SetTail("workload.late_ms_p99", late_ms, 0.99, "ms");
  sheet->Set("core.define_view_s", Median(define_s), "s");
  sheet->Set("robust.incidents", static_cast<double>(stats.incidents),
             "count");
  ReportLadder(delta, sheet);
  ReportUndoAndExec(registry_before, registry_after,
                    static_cast<int64_t>(stats.refreshes),
                    static_cast<int64_t>(stats.ops_applied), sheet);
  sheet->Set("mvcc.open_us_p50", Median(reader.open_us), "us");
  sheet->SetTail("mvcc.open_us_p99", reader.open_us, 0.99, "us");
  sheet->Set("mvcc.scan_us_p50", Median(reader.scan_us), "us");
  sheet->SetTail("mvcc.scan_us_p99", reader.scan_us, 0.99, "us");
  sheet->Set("mvcc.rows_per_read",
             Ratio(static_cast<double>(reader.rows),
                   static_cast<double>(reader.read_us.size())),
             "count");
  sheet->Set("mvcc.flip_ms_per_refresh",
             Ratio(1e3 * (registry_after.HistogramSum(
                              "idivm_version_flip_seconds") -
                          registry_before.HistogramSum(
                              "idivm_version_flip_seconds")),
                   refreshes),
             "ms");
  sheet->Set("mvcc.flip_rows_per_refresh",
             Ratio(counter_delta("idivm_version_flip_rows_total"), refreshes),
             "count");
  sheet->Set("mvcc.rebases", counter_delta("idivm_version_rebases_total"),
             "count");
  sheet->Set("mvcc.gc_versions",
             counter_delta("idivm_snapshot_gc_versions_total"), "count");
  sheet->Set("serve.start_s", Median(start_s), "s");
  sheet->Set("serve.submit_us_p50", Median(submit_us), "us");
  sheet->SetTail("serve.submit_us_p99", submit_us, 0.99, "us");
  sheet->SetTail("serve.queue_depth_p99", depth, 0.99, "count");
  sheet->Set("serve.ops_per_refresh", Ratio(applied, refreshes), "count");
  sheet->Set("serve.refreshes_per_s", refreshes / measured_s, "1/s");
  sheet->Set("serve.quiesce_s", quiesce_s, "s");
  sheet->Set("serve.shed", static_cast<double>(shed), "count");
  sheet->Set("serve.rejected",
             static_cast<double>(stats.ops_rejected + refused), "count");
  sheet->Set("serve.refresh_failures",
             static_cast<double>(stats.refresh_failures), "count");
  sheet->Set("serve.deadline_trips",
             static_cast<double>(stats.deadline_trips), "count");
  sheet->Set("persist.snapshots", static_cast<double>(stats.snapshots),
             "count");
  sheet->Set("persist.wal_syncs_per_refresh",
             Ratio(counter_delta("idivm_wal_syncs_total"), refreshes),
             "count");
  if (options.trace) {
    sheet->Set("persist.wal_live_bytes_max",
               static_cast<double>(wal_bytes_max), "B");
  }
  sheet->Set("process.cpu_share", cpu_seconds / measured_s, "cores");
  if (options.trace) {
    sheet->Set("trace.overhead_ratio",
               Ratio(Median(reader.traced_us), Median(reader.untraced_us)),
               "ratio");
    FinishTrace(options, {&log, &reader.log}, process_start, sheet);
  }

  // ---- Correctness gates (outside the timed region) ----
  if (options.damage == "view") {
    std::printf("damage: deleted a row of view %s\n",
                DamageOneView(engine.db.get(), engine.vm.get()).c_str());
  }
  ViewsMatchRecompute(engine.db.get(), engine.vm.get(), sheet);
  const std::vector<uint64_t> prefix =
      PrefixFingerprints(initial_user, accepted);
  ResetEngine(&engine);
  CheckReads(reader, prefix, accepted, options.damage == "reads", sheet);
  fs::remove_all(data_dir);
}

}  // namespace perfbench
