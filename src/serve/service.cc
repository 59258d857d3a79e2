#include "src/serve/service.h"

#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "src/common/str_util.h"
#include "src/obs/metrics.h"
#include "src/obs/prometheus.h"
#include "src/persist/snapshot.h"

namespace idivm::serve {

namespace {

using Clock = MaintenanceService::Clock;

Clock::duration FromSeconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

bool EnsureDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0) return true;
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

const char* ServiceHealthName(ServiceHealth health) {
  switch (health) {
    case ServiceHealth::kHealthy:
      return "healthy";
    case ServiceHealth::kDegraded:
      return "degraded";
    case ServiceHealth::kQuarantined:
      return "quarantined";
  }
  return "?";
}

MaintenanceService::MaintenanceService(ViewManager* vm, Database* db,
                                       const ServiceOptions& options)
    : vm_(vm),
      db_(db),
      options_(options),
      queue_(options.queue),
      repair_backoff_(options.repair_backoff),
      snapshot_backoff_(options.snapshot_backoff) {}

MaintenanceService::~MaintenanceService() { Stop(); }

bool MaintenanceService::Open(std::string* error) {
  if (state_.load() != State::kNew) {
    if (error != nullptr) *error = "service already opened or stopped";
    return false;
  }
  // Register the contract-v4 metric set eagerly so every series exists
  // (at zero) from the first export, whether or not its event ever fires
  // (docs/OBSERVABILITY.md).
  for (const char* name :
       {"idivm_ingest_accepted_total", "idivm_ingest_shed_total",
        "idivm_ingest_coalesced_total", "idivm_ingest_rejected_total",
        "idivm_refresh_deadline_trips_total", "idivm_refresh_retries_total",
        "idivm_wal_rotations_total", "idivm_wal_truncated_bytes_total",
        "idivm_snapshots_total", "idivm_snapshot_failures_total"}) {
    obs::GlobalCounter(name);
  }
  obs::GlobalGauge("idivm_ingest_queue_depth");
  obs::GlobalGauge("idivm_service_health");
  obs::GlobalHistogram("idivm_staleness_seconds");
  if (!options_.data_dir.empty()) {
    if (!EnsureDirectory(options_.data_dir) ||
        !EnsureDirectory(StrCat(options_.data_dir, "/wal"))) {
      if (error != nullptr) {
        *error = StrCat("cannot create data dir ", options_.data_dir);
      }
      return false;
    }
    wal_ = persist::SegmentedWal::Open(StrCat(options_.data_dir, "/wal"),
                                       options_.wal);
    if (wal_ == nullptr) {
      if (error != nullptr) {
        *error = StrCat("cannot open WAL directory under ",
                        options_.data_dir);
      }
      return false;
    }
    vm_->set_journal(wal_.get());
    // Bootstrap checkpoint: a data dir without a snapshot cannot Recover,
    // so cover the current (initial or resumed) state before serving.
    const std::string snapshot = StrCat(options_.data_dir, "/snapshot.bin");
    struct stat st{};
    if (::stat(snapshot.c_str(), &st) != 0) {
      const std::string err = persist::WriteSnapshot(
          *db_, vm_->SerializeRepository(), wal_->last_lsn(), snapshot);
      if (!err.empty()) {
        if (error != nullptr) {
          *error = StrCat("bootstrap snapshot failed: ", err);
        }
        vm_->set_journal(nullptr);
        wal_.reset();
        return false;
      }
      wal_->JournalCheckpoint(wal_->last_lsn(), snapshot);
    }
    checkpoint_lsn_ = wal_->last_lsn();
  }
  UpdateHealth();
  state_.store(State::kOpen);
  return true;
}

bool MaintenanceService::Start(std::string* error) {
  if (!Open(error)) return false;
  pump_ = std::thread([this] { PumpLoop(); });
  if (!options_.export_path.empty() &&
      options_.export_interval_seconds > 0) {
    exporter_ = std::thread([this] { ExportLoop(); });
  }
  return true;
}

void MaintenanceService::Stop() { Shutdown(/*crash=*/false); }

void MaintenanceService::Crash() { Shutdown(/*crash=*/true); }

void MaintenanceService::Shutdown(bool crash) {
  if (state_.exchange(State::kStopped) != State::kOpen) return;
  queue_.Close();
  if (pump_.joinable()) pump_.join();
  {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    if (!crash) StepLocked(Clock::now(), /*force_refresh=*/true);
    if (wal_ != nullptr) {
      if (!crash) wal_->Sync();
      stats_.wal_bytes = wal_->TotalBytes();  // final size outlives the WAL
      vm_->set_journal(nullptr);
      wal_.reset();
    }
  }
  {
    std::lock_guard<std::mutex> lock(export_mutex_);
    export_stop_ = true;
  }
  export_cv_.notify_all();
  if (exporter_.joinable()) exporter_.join();
}

bool MaintenanceService::SubmitInsert(const std::string& table, Row row) {
  if (!running()) return false;
  IngestOp op;
  op.kind = DiffType::kInsert;
  op.table = table;
  op.row = std::move(row);
  return queue_.Submit(std::move(op));
}

bool MaintenanceService::SubmitDelete(const std::string& table, Row key) {
  if (!running()) return false;
  IngestOp op;
  op.kind = DiffType::kDelete;
  op.table = table;
  op.row = std::move(key);
  return queue_.Submit(std::move(op));
}

bool MaintenanceService::SubmitUpdate(const std::string& table, Row key,
                                      std::vector<std::string> set_columns,
                                      Row values) {
  if (!running()) return false;
  IngestOp op;
  op.kind = DiffType::kUpdate;
  op.table = table;
  op.row = std::move(key);
  op.set_columns = std::move(set_columns);
  op.values = std::move(values);
  return queue_.Submit(std::move(op));
}

Clock::time_point MaintenanceService::Step(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  return StepLocked(now, /*force_refresh=*/false);
}

bool MaintenanceService::WaitForQuiesce(double timeout_seconds) {
  const Clock::time_point deadline =
      Clock::now() + FromSeconds(timeout_seconds);
  bool quiet = false;
  {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    // A stopped service's engine belongs to its caller again.
    if (state_.load() != State::kOpen) {
      return queue_.depth() == 0 && pending_stamps_.empty();
    }
    do {
      StepLocked(Clock::now(), /*force_refresh=*/true);
      quiet = queue_.depth() == 0 && pending_stamps_.empty();
    } while (!quiet && Clock::now() < deadline);
  }
  // These steps may have scheduled a repair or a snapshot retry the pump
  // has not seen; wake it to re-read the due time.
  queue_.Wake();
  return quiet;
}

ServiceHealth MaintenanceService::health() const {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  return health_;
}

ServiceStats MaintenanceService::stats() const {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  ServiceStats stats = stats_;
  if (wal_ != nullptr) stats.wal_bytes = wal_->TotalBytes();
  return stats;
}

bool MaintenanceService::running() const {
  return state_.load() == State::kOpen;
}

std::vector<double> MaintenanceService::StalenessSamples() const {
  std::lock_guard<std::mutex> lock(engine_mutex_);
  return staleness_samples_;
}

void MaintenanceService::ApplyOps(std::vector<IngestOp> ops) {
  for (IngestOp& op : ops) {
    bool accepted = false;
    switch (op.kind) {
      case DiffType::kInsert:
        accepted = vm_->Insert(op.table, std::move(op.row));
        break;
      case DiffType::kDelete:
        accepted = vm_->Delete(op.table, op.row);
        break;
      case DiffType::kUpdate:
        accepted = vm_->Update(op.table, op.row, op.set_columns, op.values);
        break;
    }
    if (accepted) {
      ++stats_.ops_applied;
      pending_stamps_.push_back(op.enqueued);
    } else {
      ++stats_.ops_rejected;
      obs::GlobalCounter("idivm_ingest_rejected_total").Increment();
    }
  }
}

Clock::time_point MaintenanceService::StepLocked(Clock::time_point now,
                                                 bool force_refresh) {
  const Clock::time_point step_started = Clock::now();
  if (!last_refresh_end_.has_value()) last_refresh_end_ = now;
  ApplyOps(queue_.Drain());
  if (!pending_stamps_.empty() &&
      (force_refresh ||
       pending_stamps_.size() >= options_.refresh_pending_threshold ||
       now >= RefreshDueAt())) {
    RunRefresh(now, step_started);
  }
  RunRepairs(now);
  RunHousekeeping(now);
  UpdateHealth();

  Clock::time_point due = RefreshDueAt();
  if (!needs_repair_.empty()) due = std::min(due, next_repair_);
  if (next_snapshot_retry_ > now) due = std::min(due, next_snapshot_retry_);
  return due;
}

Clock::time_point MaintenanceService::RefreshDueAt() const {
  if (pending_stamps_.empty()) return Clock::time_point::max();
  return std::min(pending_stamps_.front(), *last_refresh_end_) +
         FromSeconds(options_.refresh_interval_seconds);
}

void MaintenanceService::RunRefresh(Clock::time_point now,
                                    Clock::time_point step_started) {
  if (options_.deadline_seconds > 0) {
    deadline_.Arm(options_.deadline_seconds);
  }
  RefreshOptions refresh;
  refresh.threads = options_.threads;
  refresh.degrade = options_.degrade;
  refresh.fault = options_.fault;
  refresh.deadline =
      options_.deadline_seconds > 0 ? &deadline_ : nullptr;
  RefreshReport report;
  const Status status = vm_->TryRefresh(refresh, &report);
  deadline_.Arm(0);  // disarm between refreshes
  ++stats_.refreshes;
  stats_.deadline_trips = static_cast<uint64_t>(deadline_.trips());

  // The modification log is consumed even on failure: base changes are
  // committed, so the pending ops became visible (or their view is headed
  // for repair). Either way the staleness clock for this batch stops when
  // the refresh ends.
  const Clock::time_point end = now + (Clock::now() - step_started);
  last_refresh_end_ = end;
  constexpr size_t kMaxStalenessSamples = 1 << 17;
  auto& staleness = obs::GlobalHistogram("idivm_staleness_seconds");
  for (const auto stamp : pending_stamps_) {
    const double seconds =
        std::chrono::duration<double>(end - stamp).count();
    staleness.Observe(seconds);
    if (staleness_samples_.size() < kMaxStalenessSamples) {
      staleness_samples_.push_back(seconds);
    } else {
      staleness_samples_[staleness_ring_++ % kMaxStalenessSamples] =
          seconds;
    }
  }
  pending_stamps_.clear();

  stats_.incidents += report.incidents.size();
  for (const ViewIncident& incident : report.incidents) {
    if (!incident.recovered) needs_repair_.insert(incident.view);
  }
  for (const std::string& view : vm_->QuarantinedViews()) {
    needs_repair_.insert(view);
  }
  // Under kFailFast/kRetry the failed views rolled back without being
  // quarantined; the incident list already queued them for repair.
  if (!status.ok()) ++stats_.refresh_failures;
  if (!needs_repair_.empty() && repair_backoff_.attempts() == 0) {
    next_repair_ = now + FromSeconds(repair_backoff_.NextDelaySeconds());
  }
  if (wal_ != nullptr) stats_.last_commit_lsn = wal_->last_lsn();
}

void MaintenanceService::RunRepairs(Clock::time_point now) {
  if (needs_repair_.empty() || now < next_repair_) return;
  const std::string view = *needs_repair_.begin();
  needs_repair_.erase(needs_repair_.begin());
  vm_->RepairView(view);
  ++stats_.repairs;
  obs::GlobalCounter("idivm_refresh_retries_total").Increment();
  // The set only shrinks here, so the schedule restarts exactly when the
  // last pending repair is done.
  if (needs_repair_.empty()) {
    repair_backoff_.Reset();
  } else {
    next_repair_ = now + FromSeconds(repair_backoff_.NextDelaySeconds());
  }
}

void MaintenanceService::RunHousekeeping(Clock::time_point now) {
  if (wal_ == nullptr) return;
  if (now < next_snapshot_retry_) return;
  // Snapshots cover exactly the WAL prefix already applied, so only
  // snapshot when nothing is pending in the modification log.
  if (!pending_stamps_.empty() || vm_->PendingModifications() > 0) return;

  // Records this service journaled since its last checkpoint.
  const auto records =
      static_cast<int64_t>(wal_->last_lsn() - checkpoint_lsn_);
  const bool record_trigger = options_.snapshot_every_records > 0 &&
                              records >= options_.snapshot_every_records;
  const bool byte_trigger = options_.snapshot_every_bytes > 0 &&
                            wal_->TotalBytes() >=
                                options_.snapshot_every_bytes;
  if (!record_trigger && !byte_trigger) return;
  if (stats_.refreshes == 0 && wal_->last_lsn() == 0) return;

  const uint64_t snapshot_lsn = wal_->last_lsn();
  const std::string path = StrCat(options_.data_dir, "/snapshot.bin");
  const std::string err = persist::WriteSnapshot(
      *db_, vm_->SerializeRepository(), snapshot_lsn, path);
  if (!err.empty()) {
    ++stats_.snapshot_failures;
    obs::GlobalCounter("idivm_snapshot_failures_total").Increment();
    // Existing segments are untouched: recovery still has snapshot + full
    // WAL. Retry on the snapshot backoff.
    next_snapshot_retry_ =
        now + FromSeconds(snapshot_backoff_.NextDelaySeconds());
    return;
  }
  snapshot_backoff_.Reset();
  next_snapshot_retry_ = {};
  checkpoint_lsn_ = wal_->JournalCheckpoint(snapshot_lsn, path);
  wal_->Rotate();
  wal_->TruncateBefore(snapshot_lsn);
  ++stats_.snapshots;
  obs::GlobalCounter("idivm_snapshots_total").Increment();
}

void MaintenanceService::UpdateHealth() {
  ServiceHealth health = ServiceHealth::kHealthy;
  if (!vm_->QuarantinedViews().empty()) {
    health = ServiceHealth::kQuarantined;
  } else if (!needs_repair_.empty()) {
    health = ServiceHealth::kDegraded;
  }
  health_ = health;
  obs::GlobalGauge("idivm_service_health")
      .Set(static_cast<int64_t>(health));
}

void MaintenanceService::PumpLoop() {
  // The lock is released at the end of each iteration, before the wait;
  // once the queue is closed, Stop takes the last step.
  Clock::time_point due;
  do {
    std::lock_guard<std::mutex> lock(engine_mutex_);
    due = StepLocked(Clock::now(), /*force_refresh=*/false);
  } while (queue_.WaitUntil(due));
}

void MaintenanceService::ExportLoop() {
  std::unique_lock<std::mutex> lock(export_mutex_);
  while (true) {
    obs::WritePrometheus(obs::MetricsRegistry::Global().Snapshot(),
                         options_.export_path);
    // Stopped: that write followed the final refresh.
    if (export_stop_) return;
    export_cv_.wait_for(lock,
                        FromSeconds(options_.export_interval_seconds),
                        [&] { return export_stop_; });
  }
}

}  // namespace idivm::serve
