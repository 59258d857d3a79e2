// The maintenance service: the piece that turns the library engine into a
// long-running process (DESIGN.md "Service model & housekeeping"). Every
// decision is one step, Step(now), run under the engine lock:
//
//   drain ingest queue -> apply modifications (journaled to a segmented
//   WAL) -> refresh when due -> pace repairs -> housekeeping -> health
//
// It decides from the service's state and the time it is given, and
// returns when the next trigger falls due. The pump thread, WaitForQuiesce
// and Stop all run this step; producers feed the bounded IngestQueue from
// any thread, and an optional exporter thread publishes Prometheus text.
//
//   refresh scheduler   TryRefresh on a pending-count threshold, or an
//                       interval after the oldest pending op or the last
//                       refresh's end; a cooperative watchdog Deadline
//                       trips the degradation ladder instead of hanging.
//   repair pacing       views the ladder left unserviced (quarantined or
//                       rolled back) are rematerialized one per attempt,
//                       paced by robust::Backoff.
//   housekeeping        past a record delta since the service's last WAL
//                       checkpoint, or a WAL byte size: snapshot,
//                       CHECKPOINT, rotate, truncate what it covers;
//                       failures retry on their own Backoff.
//   health              healthy / degraded (incidents pending repair) /
//                       quarantined (a view is out of service), exported
//                       as the idivm_service_health gauge.

#ifndef IDIVM_SERVE_SERVICE_H_
#define IDIVM_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/view_manager.h"
#include "src/persist/wal_set.h"
#include "src/robust/backoff.h"
#include "src/robust/deadline.h"
#include "src/serve/ingest_queue.h"

namespace idivm::serve {

enum class ServiceHealth { kHealthy = 0, kDegraded = 1, kQuarantined = 2 };

const char* ServiceHealthName(ServiceHealth health);

// Everything a MaintenanceService is configured with: ingest
// backpressure, refresh scheduling/execution, durability & housekeeping
// thresholds, and the Prometheus exporter. Field groups mirror DESIGN.md
// "Service model & housekeeping".
struct ServiceOptions {
  IngestQueueOptions queue;

  // ---- Refresh scheduling ----
  // Refresh once this many modifications are pending...
  size_t refresh_pending_threshold = 64;
  // ...or this long after the oldest pending op or the last refresh's end.
  double refresh_interval_seconds = 0.050;

  // ---- Refresh execution (RefreshOptions) ----
  int threads = 1;
  DegradePolicy degrade = DegradePolicy::kQuarantine;
  // Watchdog: a refresh older than this trips the ladder via
  // robust::Deadline (0 disables).
  double deadline_seconds = 0;
  // Fault-injection hook threaded into every refresh; nullptr disables.
  FaultInjector* fault = nullptr;
  // Pacing for repairing unserviced views (refresh retries).
  robust::BackoffOptions repair_backoff;

  // ---- Durability & housekeeping ----
  // Directory for the WAL segment directory (<data_dir>/wal) and the
  // snapshot (<data_dir>/snapshot.bin). Empty: run without durability —
  // no journal, no snapshots.
  std::string data_dir;
  persist::SegmentedWalOptions wal;
  // Snapshot once the service's WAL holds this many records past its last
  // checkpoint (0 disables the record trigger)...
  int64_t snapshot_every_records = 4096;
  // ...or once live WAL bytes (all segments) pass this (0 disables).
  uint64_t snapshot_every_bytes = 4u << 20;
  robust::BackoffOptions snapshot_backoff;

  // ---- Metrics exporter ----
  // Prometheus text file rewritten every export_interval_seconds; empty
  // path or 0 interval disables the exporter thread.
  std::string export_path;
  double export_interval_seconds = 1.0;
};

// Monotonic lifetime totals, snapshotted by MaintenanceService::stats()
// under the service lock (a coherent point-in-time view, unlike the
// always-on global metrics they mirror).
struct ServiceStats {
  uint64_t ops_applied = 0;
  uint64_t ops_rejected = 0;  // duplicate key / absent row
  uint64_t refreshes = 0;
  uint64_t refresh_failures = 0;  // TryRefresh returned non-OK
  uint64_t incidents = 0;         // views that tripped the ladder
  uint64_t repairs = 0;           // RepairView calls (refresh retries)
  uint64_t deadline_trips = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_failures = 0;
  uint64_t last_commit_lsn = 0;
  uint64_t wal_bytes = 0;  // live on-disk WAL bytes (0 without a WAL)
};

// The long-running process wrapper. Not copyable; Stop() (or destruction)
// joins the threads. The ViewManager and Database must outlive the
// service and, between Open/Start and Stop/Crash, must not be touched by
// any other thread — the holder of the engine lock owns them.
class MaintenanceService {
 public:
  using Clock = std::chrono::steady_clock;

  MaintenanceService(ViewManager* vm, Database* db,
                     const ServiceOptions& options);
  ~MaintenanceService();
  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  // Opens the service without a thread: registers the contract-v4
  // metrics, opens (or resumes) the WAL directory as the journal and
  // writes the bootstrap snapshot when the data directory has none. To
  // resume a prior incarnation, run persist::Recover over the same
  // data_dir first. A service opens once: false with `error` set when the
  // data directory is unusable or the service was opened or stopped.
  bool Open(std::string* error);

  // Open, then start the pump thread (and the exporter, when configured).
  bool Start(std::string* error);

  // Graceful shutdown: closes the queue, joins the pump, runs a final
  // forced step, syncs and detaches the WAL, then stops the exporter so
  // its last write follows the final refresh. Idempotent.
  void Stop();

  // Chaos shutdown: Stop without the final step and the sync, abandoning
  // queued ops as a kill signal would. Idempotent with Stop.
  void Crash();

  // Producer side (any thread). False: shed, or service not open.
  bool SubmitInsert(const std::string& table, Row row);
  bool SubmitDelete(const std::string& table, Row key);
  bool SubmitUpdate(const std::string& table, Row key,
                    std::vector<std::string> set_columns, Row values);

  // One pump iteration under the engine lock, for a service opened
  // without the pump. Returns when the next trigger falls due
  // (time_point::max() when none is armed).
  Clock::time_point Step(Clock::time_point now);

  // Runs forced steps until every op submitted so far is applied *and*
  // refreshed (true) or the timeout passes (false), then wakes the pump
  // to re-read the due time. Test/bench synchronization.
  bool WaitForQuiesce(double timeout_seconds);

  ServiceHealth health() const;
  ServiceStats stats() const;
  // Staleness samples (seconds from Submit to the refresh that made the
  // op visible), a bounded reservoir of the most recent ~128k — the
  // bench's percentile source (the idivm_staleness_seconds histogram's
  // power-of-4 buckets are too coarse for sub-second p99s).
  std::vector<double> StalenessSamples() const;
  // Open and not yet stopped: Submit* accept ops.
  bool running() const;
  IngestQueue& queue() { return queue_; }
  persist::SegmentedWal* wal() { return wal_.get(); }

 private:
  enum class State { kNew, kOpen, kStopped };

  void Shutdown(bool crash);
  void PumpLoop();
  void ExportLoop();
  // Step's body; `force_refresh` refreshes whatever is pending. Caller
  // holds engine_mutex_, as for every helper below.
  Clock::time_point StepLocked(Clock::time_point now, bool force_refresh);
  void ApplyOps(std::vector<IngestOp> ops);
  // When the time triggers fire for what is pending (max() for nothing).
  Clock::time_point RefreshDueAt() const;
  // One TryRefresh under the watchdog; harvests incidents into the repair
  // set and observes staleness up to the refresh's end: `now` plus the
  // real time since `step_started`.
  void RunRefresh(Clock::time_point now, Clock::time_point step_started);
  // At most one RepairView per call, paced by repair_backoff_.
  void RunRepairs(Clock::time_point now);
  // Snapshot + checkpoint + rotate + truncate when a trigger fired.
  void RunHousekeeping(Clock::time_point now);
  void UpdateHealth();

  ViewManager* vm_;
  Database* db_;
  ServiceOptions options_;
  IngestQueue queue_;
  robust::Deadline deadline_;
  robust::Backoff repair_backoff_;
  robust::Backoff snapshot_backoff_;
  std::atomic<State> state_{State::kNew};

  // Engine state, read and written only under engine_mutex_.
  mutable std::mutex engine_mutex_;
  std::unique_ptr<persist::SegmentedWal> wal_;
  ServiceStats stats_;
  ServiceHealth health_ = ServiceHealth::kHealthy;
  std::set<std::string> needs_repair_;
  std::vector<Clock::time_point> pending_stamps_;
  std::vector<double> staleness_samples_;
  size_t staleness_ring_ = 0;
  // When the last refresh ended; the first step starts the interval.
  std::optional<Clock::time_point> last_refresh_end_;
  Clock::time_point next_repair_;
  Clock::time_point next_snapshot_retry_;
  uint64_t checkpoint_lsn_ = 0;  // the service's last CHECKPOINT record

  // Threads; export_mutex_ guards export_stop_.
  std::mutex export_mutex_;
  std::condition_variable export_cv_;
  bool export_stop_ = false;
  std::thread pump_;
  std::thread exporter_;
};

}  // namespace idivm::serve

#endif  // IDIVM_SERVE_SERVICE_H_
