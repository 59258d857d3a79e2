#include "src/core/view_manager.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/core/script_io.h"
#include "src/obs/metrics.h"

namespace idivm {

const char* DegradePolicyName(DegradePolicy policy) {
  switch (policy) {
    case DegradePolicy::kFailFast:
      return "fail-fast";
    case DegradePolicy::kRetry:
      return "retry";
    case DegradePolicy::kRecompute:
      return "recompute";
    case DegradePolicy::kQuarantine:
      return "quarantine";
  }
  IDIVM_UNREACHABLE("bad DegradePolicy");
}

std::optional<DegradePolicy> ParseDegradePolicy(const std::string& text) {
  if (text == "fail-fast") return DegradePolicy::kFailFast;
  if (text == "retry") return DegradePolicy::kRetry;
  if (text == "recompute") return DegradePolicy::kRecompute;
  if (text == "quarantine") return DegradePolicy::kQuarantine;
  return std::nullopt;
}

ViewManager::ViewManager(Database* db, RefreshMode mode)
    : db_(db), mode_(mode), logger_(db) {
  IDIVM_CHECK(db_ != nullptr);
}

Maintainer& ViewManager::DefineView(const std::string& name,
                                    const PlanPtr& plan,
                                    const CompilerOptions& options) {
  IDIVM_CHECK(!HasView(name), StrCat("view already defined: ", name));
  views_.emplace_back(name, std::make_unique<Maintainer>(
                                db_, CompileView(name, plan, *db_, options)));
  if (registry_ != nullptr) registry_->Track(db_->GetTable(name));
  return *views_.back().second;
}

bool ViewManager::HasView(const std::string& name) const {
  for (const auto& [view_name, maintainer] : views_) {
    if (view_name == name) return true;
  }
  return false;
}

Maintainer& ViewManager::GetView(const std::string& name) {
  for (auto& [view_name, maintainer] : views_) {
    if (view_name == name) return *maintainer;
  }
  IDIVM_UNREACHABLE(StrCat("no such view: ", name));
}

std::vector<std::string> ViewManager::ViewNames() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [name, maintainer] : views_) out.push_back(name);
  return out;
}

void ViewManager::DropView(const std::string& name) {
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if (it->first != name) continue;
    for (const std::string& cache : it->second->view().cache_tables) {
      db_->DropTable(cache);
    }
    db_->DropTable(name);
    views_.erase(it);
    quarantined_.erase(name);
    // Snapshots already holding the dropped view's versions keep them
    // until released; new snapshots no longer contain it.
    if (registry_ != nullptr) registry_->Untrack(name);
    return;
  }
  IDIVM_UNREACHABLE(StrCat("no such view: ", name));
}

void ViewManager::RecomputeAllViews() {
  for (size_t i = 0; i < views_.size(); ++i) {
    const Status status = TryRecomputeView(i, nullptr);
    IDIVM_CHECK(status.ok(), status.ToString());
  }
  // Rematerializing everything is also the repair of last resort.
  quarantined_.clear();
  // The live Table objects were rebuilt; republish each from contents.
  if (registry_ != nullptr) {
    for (const auto& [name, maintainer] : views_) {
      registry_->Track(db_->GetTable(name));
    }
  }
}

Status ViewManager::TryRecomputeView(size_t index, FaultInjector* fault) {
  auto& [name, maintainer] = views_[index];
  if (fault != nullptr) {
    IDIVM_RETURN_IF_ERROR(fault->Check(StrCat("recompute:", name)));
  }
  const PlanPtr plan = maintainer->view().plan;
  CompilerOptions options = maintainer->view().options;
  // Rematerialization is real work; charge it (view-definition time is free
  // in the cost model).
  options.charge_materialization = true;
  for (const std::string& cache : maintainer->view().cache_tables) {
    db_->DropTable(cache);
  }
  db_->DropTable(name);
  maintainer = std::make_unique<Maintainer>(
      db_, CompileView(name, plan, *db_, options));
  return maintainer->compile_status();
}

bool ViewManager::IsQuarantined(const std::string& name) const {
  return quarantined_.count(name) > 0;
}

std::vector<std::string> ViewManager::QuarantinedViews() const {
  return std::vector<std::string>(quarantined_.begin(), quarantined_.end());
}

void ViewManager::RepairView(const std::string& name) {
  for (size_t i = 0; i < views_.size(); ++i) {
    if (views_[i].first != name) continue;
    const Status status = TryRecomputeView(i, nullptr);
    IDIVM_CHECK(status.ok(), status.ToString());
    quarantined_.erase(name);
    if (registry_ != nullptr) registry_->Track(db_->GetTable(name));
    return;
  }
  IDIVM_UNREACHABLE(StrCat("no such view: ", name));
}

bool ViewManager::Insert(const std::string& table, Row row) {
  const bool ok = logger_.Insert(table, std::move(row));
  if (ok && mode_ == RefreshMode::kEager) Refresh();
  return ok;
}

bool ViewManager::Delete(const std::string& table, const Row& key) {
  const bool ok = logger_.Delete(table, key);
  if (ok && mode_ == RefreshMode::kEager) Refresh();
  return ok;
}

bool ViewManager::Update(const std::string& table, const Row& key,
                         const std::vector<std::string>& set_columns,
                         const Row& values) {
  const bool ok = logger_.Update(table, key, set_columns, values);
  if (ok && mode_ == RefreshMode::kEager) Refresh();
  return ok;
}

size_t ViewManager::PendingModifications() const {
  size_t n = 0;
  for (const auto& [table, mods] : logger_.log()) n += mods.size();
  return n;
}

std::string ViewManager::SerializeRepository() const {
  std::string out = StrCat("(repository 1 ", views_.size(), "\n");
  for (const auto& [name, maintainer] : views_) {
    out += SerializeCompiledView(maintainer->view());
    out += "\n";
  }
  out += ")\n";
  return out;
}

std::string ViewManager::LoadRepository(const std::string& text) {
  // Minimal framing: "(repository 1 <n>" followed by n compiled views.
  // The dump is external input: a malformed header is a load error, never
  // a crash.
  size_t pos = text.find("(repository 1 ");
  if (pos != 0) return "not a repository dump";
  pos = text.find('\n');
  if (pos == std::string::npos) return "truncated repository header";
  size_t count = 0;
  {
    const std::string header = text.substr(14, pos - 14);
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(header.c_str(), &end, 10);
    if (end == header.c_str() || errno == ERANGE || parsed < 0 ||
        parsed > static_cast<long long>(text.size())) {
      return StrCat("bad repository view count: ", header);
    }
    count = static_cast<size_t>(parsed);
  }
  size_t cursor = pos + 1;
  for (size_t i = 0; i < count; ++i) {
    const size_t start = text.find("(compiled-view", cursor);
    if (start == std::string::npos) return "missing compiled view";
    size_t next = text.find("(compiled-view", start + 1);
    if (next == std::string::npos) next = text.size();
    const LoadResult loaded =
        LoadCompiledView(text.substr(start, next - start), *db_);
    if (!loaded.ok) return loaded.error;
    if (HasView(loaded.view.view_name)) {
      return StrCat("view already loaded: ", loaded.view.view_name);
    }
    auto maintainer = std::make_unique<Maintainer>(db_, loaded.view);
    if (!maintainer->compile_status().ok()) {
      return StrCat("view ", loaded.view.view_name, ": ",
                    maintainer->compile_status().ToString());
    }
    views_.emplace_back(loaded.view.view_name, std::move(maintainer));
    if (registry_ != nullptr) {
      registry_->Track(db_->GetTable(loaded.view.view_name));
    }
    cursor = next;
  }
  return "";
}

void ViewManager::EnableSnapshotReads() {
  if (registry_ != nullptr) return;
  registry_ = std::make_unique<mvcc::SnapshotRegistry>();
  // Existing views start versioned at their current contents (including
  // quarantined ones: a stale live table serves stale snapshots, exactly
  // like direct reads would).
  for (const auto& [name, maintainer] : views_) {
    registry_->Track(db_->GetTable(name));
  }
}

void ViewManager::TrackTableForSnapshots(const std::string& name) {
  IDIVM_CHECK(registry_ != nullptr,
              "TrackTableForSnapshots requires EnableSnapshotReads()");
  registry_->Track(db_->GetTable(name));
}

mvcc::Snapshot ViewManager::OpenSnapshot() const {
  IDIVM_CHECK(registry_ != nullptr,
              "OpenSnapshot requires EnableSnapshotReads()");
  return registry_->OpenSnapshot();
}

uint64_t ViewManager::snapshot_epoch() const {
  return registry_ != nullptr ? registry_->committed_epoch() : 0;
}

std::map<std::string, MaintainResult> ViewManager::Refresh(
    const RefreshOptions& options) {
  RefreshReport report;
  const Status status = TryRefresh(options, &report);
  IDIVM_CHECK(status.ok(), status.ToString());
  return std::move(report.results);
}

Status ViewManager::TryRefresh(const RefreshOptions& options,
                               RefreshReport* report) {
  // Journal the batch boundary first: recovery replays whole COMMIT-
  // delimited batches, so the commit must cover exactly the modifications
  // this refresh consumes.
  if (logger_.journal() != nullptr && !logger_.log().empty()) {
    logger_.journal()->JournalCommit();
  }
  const auto net = logger_.NetChanges();
  logger_.Clear();
  if (net.empty()) return OkStatus();

  obs::TraceRecorder* const trace =
      options.trace != nullptr ? options.trace : obs::GlobalTrace();
  const int64_t refresh_start_us = trace != nullptr ? trace->NowMicros() : 0;
  const AccessStats refresh_before = db_->stats();
  static obs::Counter& refreshes = obs::GlobalCounter("idivm_refreshes_total");
  refreshes.Increment();

  // Views in service this round, definition order.
  std::vector<size_t> active;
  for (size_t i = 0; i < views_.size(); ++i) {
    if (quarantined_.count(views_[i].first) == 0) active.push_back(i);
  }
  const size_t n = active.size();

  // In snapshot-read mode the refresh's outcome — tracked base-table deltas
  // plus every serviceable view's epoch redo — accumulates here and is
  // installed as ONE atomic flip at the end, whatever mix of commits,
  // recomputes and quarantines the ladder produced.
  mvcc::SnapshotRegistry::PublishSpec spec;
  if (registry_ != nullptr) {
    for (const auto& [table, mods] : net) {
      if (!registry_->IsTracked(table)) continue;
      auto& delta = spec.deltas[table];
      delta.insert(delta.end(), mods.begin(), mods.end());
    }
  }

  if (n == 0) {
    // No views in service, but tracked base tables still advanced.
    if (registry_ != nullptr) registry_->PublishEpoch(spec, *db_);
    return OkStatus();
  }

  MaintainOptions mopts;
  mopts.threads = options.script_threads;
  mopts.fault = options.fault;
  mopts.deadline = options.deadline;
  mopts.max_epoch_ops = options.max_epoch_ops;
  mopts.trace = options.trace;

  struct ViewRun {
    MaintainResult result;
    Status first_error;  // OK when the first attempt succeeded
    int rollbacks = 0;   // failed epoch attempts (first try and retry)
    bool retried = false;
    bool serviceable = false;  // current after rungs 0/1
    // Snapshot-read mode: the committed epoch's stored-row changes (moved
    // out of the epoch's undo log), awaiting the atomic flip.
    EpochUndo redo;
  };

  // Rungs 0 and 1 for one view, on whatever thread maintains it. Sound in
  // parallel mode for the same reason a plain epoch is: the retry touches
  // only this view's tables, and the rolled-back epoch published nothing.
  auto maintain_view = [&](size_t vi, ViewRun* run) {
    Maintainer& m = *views_[vi].second;
    MaintainOptions vopts = mopts;
    // A failed epoch rolls back and leaves run->redo empty; only the
    // committed attempt's changes ever reach the flip.
    if (registry_ != nullptr) vopts.redo = &run->redo;
    Status status = m.TryMaintain(net, vopts, &run->result);
    if (status.ok()) {
      run->serviceable = true;
      return;
    }
    run->first_error = std::move(status);
    ++run->rollbacks;
    if (options.degrade == DegradePolicy::kFailFast) return;
    // Rung 1: the epoch rolled back cleanly, so a single-threaded re-run
    // starts from exactly the pre-epoch state; transient failures (an
    // injected fault whose budget is spent, a scheduling hazard) do not
    // repeat deterministically.
    run->retried = true;
    MaintainOptions retry = vopts;
    retry.threads = 1;
    status = m.TryMaintain(net, retry, &run->result);
    if (status.ok()) {
      run->serviceable = true;
      return;
    }
    ++run->rollbacks;
  };

  std::vector<ViewRun> runs(n);
  const int threads = std::min<int>(options.threads, static_cast<int>(n));
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) maintain_view(active[i], &runs[i]);
  } else {
    // Parallel refresh: one task per view; each task charges into a private
    // per-view arena (installed for the whole epoch), published in
    // definition order afterwards so the shared counters match the
    // sequential run.
    std::vector<StatsArena> arenas(n);
    {
      ThreadPool pool(threads);
      for (size_t i = 0; i < n; ++i) {
        pool.Submit([&, i] {
          ScopedStatsArena scope(&arenas[i]);
          maintain_view(active[i], &runs[i]);
        });
      }
      // ~ThreadPool drains the queue and joins.
    }
    for (size_t i = 0; i < n; ++i) arenas[i].Publish();
  }

  // Rungs 2 and 3 and all incident accounting run here, single-threaded,
  // in definition order — they touch shared state (the table catalog, the
  // quarantine set, the rung counters).
  Status refresh_status = OkStatus();
  AccessStats& stats = db_->stats();
  for (size_t i = 0; i < n; ++i) {
    const size_t vi = active[i];
    const std::string& name = views_[vi].first;
    ViewRun& run = runs[i];
    if (run.first_error.ok()) {
      report->results.emplace(name, run.result);
      continue;
    }
    ViewIncident incident;
    incident.view = name;
    incident.error = run.first_error;
    stats.epoch_rollbacks += run.rollbacks;
    obs::GlobalCounter("idivm_epoch_rollbacks_total").Increment(run.rollbacks);
    if (run.retried) {
      stats.degraded_retries += 1;
      obs::GlobalCounter("idivm_ladder_retries_total").Increment();
    }
    if (run.serviceable) {
      incident.rung = 1;
      incident.recovered = true;
      report->results.emplace(name, run.result);
      report->incidents.push_back(std::move(incident));
      continue;
    }
    incident.rung = run.retried ? 1 : 0;
    if (options.degrade == DegradePolicy::kFailFast ||
        options.degrade == DegradePolicy::kRetry) {
      if (refresh_status.ok()) refresh_status = run.first_error;
      report->incidents.push_back(std::move(incident));
      continue;
    }
    // Rung 2: the epoch rolled back, but the base tables already carry this
    // refresh's changes — rematerializing from them lands the view exactly
    // on its post-refresh contents.
    incident.rung = 2;
    stats.recompute_fallbacks += 1;
    obs::GlobalCounter("idivm_ladder_recomputes_total").Increment();
    // Safe to diff the shared counters directly: rung 2 runs single-threaded
    // after every view's epoch has finished and published.
    const AccessStats recompute_before = db_->stats();
    const int64_t recompute_start_us =
        trace != nullptr ? trace->NowMicros() : 0;
    const Status recomputed = TryRecomputeView(vi, options.fault);
    if (trace != nullptr) {
      obs::TraceSpan span;
      span.name = StrCat("recompute ", name);
      span.category = "ladder";
      span.tid = obs::TraceRecorder::CurrentThreadId();
      span.start_us = recompute_start_us;
      span.dur_us = trace->NowMicros() - recompute_start_us;
      span.accesses = db_->stats() - recompute_before;
      span.args.emplace_back("rung", 2);
      span.args.emplace_back("recovered", recomputed.ok() ? 1 : 0);
      trace->Record(std::move(span));
    }
    if (recomputed.ok()) {
      incident.recovered = true;
      report->results.emplace(name, MaintainResult());
      report->incidents.push_back(std::move(incident));
      // The live Table object was rebuilt, so there is no delta to derive
      // from; the flip republishes this view from its new contents.
      if (registry_ != nullptr) spec.rematerialize.insert(name);
      continue;
    }
    if (options.degrade == DegradePolicy::kRecompute) {
      if (refresh_status.ok()) refresh_status = recomputed;
      report->incidents.push_back(std::move(incident));
      continue;
    }
    // Rung 3: out of service. Journal first — the WAL must record that the
    // materialized state of this view is stale from here on.
    incident.rung = 3;
    stats.quarantines += 1;
    obs::GlobalCounter("idivm_ladder_quarantines_total").Increment();
    if (trace != nullptr) {
      obs::TraceSpan span;
      span.name = StrCat("quarantine ", name);
      span.category = "ladder";
      span.tid = obs::TraceRecorder::CurrentThreadId();
      span.start_us = trace->NowMicros();
      span.dur_us = 0;
      span.args.emplace_back("rung", 3);
      trace->Record(std::move(span));
    }
    quarantined_.insert(name);
    if (logger_.journal() != nullptr) {
      logger_.journal()->JournalQuarantine(name, run.first_error.ToString());
    }
    report->incidents.push_back(std::move(incident));
  }
  if (registry_ != nullptr) {
    // Collect every committed epoch's redo into the spec, keyed by tracked
    // table (cache-table entries are filtered out here: snapshots serve
    // views and base tables, not idIVM's internal caches), then install
    // the whole refresh as one flip. Views that stayed on their pre-epoch
    // contents (failed or quarantined) are absent from the spec and keep
    // their current version.
    for (size_t i = 0; i < n; ++i) {
      ViewRun& run = runs[i];
      if (!run.serviceable) continue;
      for (auto& [table, mod] : run.redo.TakeEntries()) {
        if (!registry_->IsTracked(table->name())) continue;
        spec.deltas[table->name()].push_back(std::move(mod));
      }
    }
    registry_->PublishEpoch(spec, *db_);
  }
  if (trace != nullptr) {
    obs::TraceSpan span;
    span.name = "refresh";
    span.category = "refresh";
    span.tid = obs::TraceRecorder::CurrentThreadId();
    span.start_us = refresh_start_us;
    span.dur_us = trace->NowMicros() - refresh_start_us;
    span.accesses = db_->stats() - refresh_before;
    span.args.emplace_back("views", static_cast<int64_t>(n));
    span.args.emplace_back("incidents",
                           static_cast<int64_t>(report->incidents.size()));
    trace->Record(std::move(span));
  }
  return refresh_status;
}

}  // namespace idivm
