// trickle_refresh and bulk_refresh: one thread runs a closed loop of
// `batch` ViewManager::Update calls followed by one TryRefresh, at the
// library's default RefreshOptions. With batch = 10 the per-refresh
// machinery (epoch setup, pre-state rebuild, net-change compaction, commit)
// dominates each refresh; with batch = 1000 the per-tuple slope does, so a
// fixed-cost change shows on the first and should not move the second.

#include <cstdio>

#include "perfbench/harness.h"
#include "src/storage/access_stats.h"

namespace perfbench {

using idivm::AccessStats;
using idivm::BsmaWorkload;
using idivm::MaintainResult;
using idivm::RefreshOptions;
using idivm::RefreshReport;

namespace {

// Counts over the first rounds of the loop — a prefix fixed by the
// workload, so for a given seed they repeat exactly whatever the machine's
// speed.
struct WindowCounts {
  int64_t updates = 0;
  AccessStats accesses;
  int64_t diff_tuples = 0;
  int64_t rows_touched = 0;
  int64_t dummy_tuples = 0;
  std::map<std::string, int64_t> view_accesses;
};

}  // namespace

void RunRefreshLoop(const RunOptions& options, const LoopShape& shape,
                    Clock::time_point process_start, Sheet* sheet) {
  const int batch = shape.batch;
  SpanLog log(1);
  SpanLog* spans = options.trace ? &log : nullptr;

  std::vector<double> setup_s, generate_s, define_s;
  Engine engine;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    ResetEngine(&engine);
    const Clock::time_point start =
        rep == 0 ? process_start : Clock::now();
    engine = BuildEngine(rep == kSetupRepetitions - 1 ? spans : nullptr);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    generate_s.push_back(engine.generate_seconds);
    define_s.push_back(engine.define_seconds);
  }
  idivm::Database& db = *engine.db;
  idivm::ViewManager& vm = *engine.vm;
  const std::vector<std::string>& views = BsmaWorkload::ViewNames();

  UpdateStream stream(StreamSeed(options.seed, 1),
                      idivm::BsmaConfig{}.users);
  WindowCounts window;

  std::vector<double> refresh_ms, script_ms, overhead_ms;
  std::vector<double> diff_ms, cache_ms, view_update_ms;
  std::map<std::string, std::vector<double>> per_view_ms;
  std::vector<double> update_us;  // traced rounds only
  std::vector<double> round_ms;
  // Both at the reference machine speed (see SpeedProbe).
  std::vector<double> refresh_norm_ms, round_norm_ms;
  struct Timed {
    Clock::time_point round_start, refresh_start, refresh_end;
  };
  std::vector<Timed> timed;
  std::vector<double> traced_round_ms, untraced_round_ms;
  int64_t pending_total = 0;
  int64_t incidents = 0;
  int64_t updates = 0;

  SpeedProbe probe;
  const AccessStats loop_stats_before = db.stats();
  const RegistryReading registry_before = ReadRegistry();
  const double cpu_before = CpuSeconds();
  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point loop_end = Plus(loop_start, options.seconds);
  int64_t round = 0;
  while (round < shape.min_rounds || Clock::now() < loop_end) {
    const bool traced = options.trace && round % 2 == 0;
    const uint64_t round_id = traced ? log.NewId() : 0;
    const AccessStats round_stats_before = db.stats();
    const Clock::time_point round_start = Clock::now();
    for (int i = 0; i < batch; ++i) {
      const UserUpdate update = stream.Next();
      const Clock::time_point update_start =
          traced ? Clock::now() : Clock::time_point{};
      const bool ok = vm.Update("user", UserKey(update), UserSetColumns(),
                                UserValues(update));
      if (traced) {
        const Clock::time_point update_end = Clock::now();
        log.Add("Update", "core", update_start, update_end, round_id,
                round_id);
        update_us.push_back(1e6 *
                            SecondsBetween(update_start, update_end));
      }
      sheet->Attempt();
      if (!ok) sheet->Fail();
    }
    updates += batch;
    pending_total += static_cast<int64_t>(vm.PendingModifications());

    RefreshReport report;
    const Clock::time_point refresh_start = Clock::now();
    const idivm::Status status = vm.TryRefresh(RefreshOptions{}, &report);
    const Clock::time_point refresh_end = Clock::now();
    sheet->Attempt();
    if (!status.ok() || !report.incidents.empty()) sheet->Fail();
    incidents += static_cast<int64_t>(report.incidents.size());

    const double refresh = 1e3 * SecondsBetween(refresh_start, refresh_end);
    refresh_ms.push_back(refresh);
    double script = 0, diff = 0, cache = 0, view_update = 0;
    for (const auto& [view, result] : report.results) {
      script += 1e3 * result.TotalSeconds();
      diff += 1e3 * result.diff_computation.seconds;
      cache += 1e3 * result.cache_update.seconds;
      view_update += 1e3 * result.view_update.seconds;
      per_view_ms[view].push_back(1e3 * result.TotalSeconds());
    }
    script_ms.push_back(script);
    overhead_ms.push_back(refresh - script);
    diff_ms.push_back(diff);
    cache_ms.push_back(cache);
    view_update_ms.push_back(view_update);

    if (round < shape.count_rounds) {
      window.updates += batch;
      window.accesses += db.stats() - round_stats_before;
      for (const auto& [view, result] : report.results) {
        window.diff_tuples += result.diff_tuples_applied;
        window.rows_touched += result.rows_touched;
        window.dummy_tuples += result.dummy_tuples;
        window.view_accesses[view] +=
            result.TotalAccesses().TotalAccesses();
      }
    }

    const double this_round_ms =
        1e3 * SecondsBetween(round_start, refresh_end);
    round_ms.push_back(this_round_ms);
    timed.push_back(Timed{round_start, refresh_start, refresh_end});
    if (options.trace) {
      (traced ? traced_round_ms : untraced_round_ms)
          .push_back(this_round_ms);
    }
    if (traced) {
      const uint64_t refresh_id = log.NewId();
      // The views run one after another in definition order (threads = 1),
      // so their MaintainResult times are laid out back to back from the
      // start of the refresh; the remainder is the refresh's self time.
      Clock::time_point cursor = refresh_start;
      for (const std::string& view : views) {
        const auto it = report.results.find(view);
        if (it == report.results.end()) continue;
        const MaintainResult& result = it->second;
        const Clock::time_point view_start = cursor;
        const uint64_t view_id = log.NewId();
        Clock::time_point phase = view_start;
        const std::pair<const char*, double> phases[] = {
            {"diff_computation", result.diff_computation.seconds},
            {"cache_update", result.cache_update.seconds},
            {"view_update", result.view_update.seconds}};
        for (const auto& [name, seconds] : phases) {
          const Clock::time_point next = Plus(phase, seconds);
          log.Add(name, "core", phase, next, view_id, round_id);
          phase = next;
        }
        cursor = Plus(view_start, result.TotalSeconds());
        log.Record(view_id, view.c_str(), "core", view_start, cursor,
                   refresh_id, round_id);
      }
      log.Record(refresh_id, "TryRefresh", "core", refresh_start,
                 refresh_end, round_id, round_id);
      log.Record(round_id, "round", "workload", round_start, refresh_end, 0,
                 round_id);
    }
    probe.After(1e-3 * this_round_ms);
    ++round;
  }
  const Clock::time_point measured_end = Clock::now();
  for (size_t i = 0; i < timed.size(); ++i) {
    const Timed& t = timed[i];
    refresh_norm_ms.push_back(
        probe.AtReference(refresh_ms[i], t.refresh_start, t.refresh_end));
    round_norm_ms.push_back(
        probe.AtReference(round_ms[i], t.round_start, t.refresh_end));
  }
  const double loop_seconds = SecondsBetween(loop_start, measured_end);
  const double cpu_seconds = CpuSeconds() - cpu_before;
  const double peak_rss = PeakRssMiB();
  const AccessStats loop_delta = db.stats() - loop_stats_before;
  const RegistryReading registry_after = ReadRegistry();

  // ---- End-to-end ----
  sheet->Set("setup_s", Median(setup_s), "s");
  // The gated figures are medians at the reference machine speed; the raw
  // ones are reported beside them.
  sheet->Set("latency_norm_ms", Median(refresh_norm_ms), "ms");
  sheet->Set("updates_norm_per_s", 1e3 * batch / Median(round_norm_ms),
             "1/s");
  const double window_updates = static_cast<double>(window.updates);
  ReportAccesses(window.accesses, window_updates, sheet);
  sheet->Set("peak_rss_mb", peak_rss, "MiB");
  sheet->Set("e2e.refresh_p10_ms", Percentile(refresh_ms, 0.10), "ms");
  sheet->Set("e2e.refresh_p50_ms", Median(refresh_ms), "ms");
  // The loop's plain rate, over the rounds' own time (the probe units run
  // between rounds).
  double rounds_seconds = 0;
  for (const double ms : round_ms) rounds_seconds += 1e-3 * ms;
  sheet->Set("e2e.updates_per_s",
             static_cast<double>(updates) / rounds_seconds, "1/s");
  sheet->SetTail("e2e.refresh_p99_ms", refresh_ms, 0.99, "ms");
  sheet->Set("e2e.refreshes", static_cast<double>(refresh_ms.size()),
             "count");

  // ---- Per layer ----
  sheet->Set("workload.generate_s", Median(generate_s), "s");
  sheet->Set("workload.probe_unit_us_p50", 1e6 * probe.MedianUnitSeconds(),
             "us");
  sheet->Set("core.define_view_s", Median(define_s), "s");
  sheet->Set("core.update_us_p50", Median(update_us), "us");
  sheet->Set("core.script_ms_p50", Median(script_ms), "ms");
  sheet->Set("core.diff_computation_ms_p50", Median(diff_ms), "ms");
  sheet->Set("core.cache_update_ms_p50", Median(cache_ms), "ms");
  sheet->Set("core.view_update_ms_p50", Median(view_update_ms), "ms");
  sheet->Set("core.refresh_overhead_ms_p50", Median(overhead_ms), "ms");
  sheet->SetTail("core.refresh_overhead_ms_p99", overhead_ms, 0.99, "ms");
  for (const std::string& view : views) {
    sheet->Set("core.view." + view + ".ms_p50", Median(per_view_ms[view]),
               "ms");
    sheet->Set("storage.view." + view + ".accesses_per_update",
               Ratio(static_cast<double>(window.view_accesses[view]),
                     window_updates),
               "count");
  }
  sheet->Set("core.pending_per_refresh",
             Ratio(static_cast<double>(pending_total),
                   static_cast<double>(refresh_ms.size())),
             "count");
  const double diff_tuples = static_cast<double>(window.diff_tuples);
  sheet->Set("diff.tuples_per_update", Ratio(diff_tuples, window_updates),
             "count");
  sheet->Set("diff.rows_per_tuple",
             Ratio(static_cast<double>(window.rows_touched), diff_tuples),
             "count");
  sheet->Set("diff.dummy_share",
             Ratio(static_cast<double>(window.dummy_tuples), diff_tuples),
             "fraction");
  sheet->Set("robust.incidents", static_cast<double>(incidents), "count");
  ReportLadder(loop_delta, sheet);
  ReportUndoAndExec(registry_before, registry_after,
                    static_cast<int64_t>(refresh_ms.size()), updates, sheet);
  sheet->Set("process.cpu_share", cpu_seconds / loop_seconds, "cores");
  if (options.trace) {
    sheet->Set("trace.overhead_ratio",
               Ratio(Median(traced_round_ms), Median(untraced_round_ms)),
               "ratio");
    FinishTrace(options, {&log}, process_start, sheet);
  }

  // ---- Correctness gate (outside the timed region) ----
  if (options.damage == "view") {
    std::printf("damage: deleted a row of view %s\n",
                DamageOneView(&db, &vm).c_str());
  }
  ViewsMatchRecompute(&db, &vm, sheet);
}

}  // namespace perfbench
