// The system façade of Fig. 3: a ∆-script repository managing many
// materialized views over one database, fed by a shared modification
// logger. Supports the paper's two refresh disciplines:
//   - deferred IVM (Sections 3-5, the mode this implementation's rules
//     target): changes accumulate in the log; Refresh() runs every view's
//     ∆-script against the compacted net changes;
//   - eager IVM: every logged modification triggers maintenance of all
//     views immediately (the architecture is identical; the log always
//     holds exactly one modification when the scripts run).
//
// Two refresh entry points. TryRefresh is the fault-isolated path: every
// view maintains inside an atomic, roll-backable epoch (src/robust/epoch.h)
// and a failed epoch walks the degradation ladder (DegradePolicy below) —
// retry single-threaded, recompute from base tables, quarantine — instead
// of taking the process down. Refresh is a thin IDIVM_CHECK wrapper over
// TryRefresh that keeps the original abort-on-error semantics for callers
// with nothing to recover to.

#ifndef IDIVM_CORE_VIEW_MANAGER_H_
#define IDIVM_CORE_VIEW_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/mvcc/snapshot.h"
#include "src/robust/deadline.h"
#include "src/robust/fault_injection.h"
#include "src/robust/status.h"

namespace idivm {

enum class RefreshMode { kDeferred, kEager };

// The degradation ladder: how far TryRefresh escalates when a view's
// maintenance epoch fails (and rolls back). Each policy includes every
// rung before it.
enum class DegradePolicy {
  kFailFast,    // rung 0 only: roll back, surface the error
  kRetry,       // + rung 1: re-run the epoch single-threaded
  kRecompute,   // + rung 2: rematerialize the view from base tables
  kQuarantine,  // + rung 3: take the view out of service, keep going
};

const char* DegradePolicyName(DegradePolicy policy);
// Parses "fail-fast" / "retry" / "recompute" / "quarantine".
std::optional<DegradePolicy> ParseDegradePolicy(const std::string& text);

struct RefreshOptions {
  // Worker threads for Refresh. 1 maintains the views sequentially in
  // definition order (the pre-parallel behaviour). More threads maintain
  // whole views concurrently — sound because each view's ∆-script writes
  // only its own view/cache tables and reads base tables that Refresh never
  // modifies; every access charge is deferred through a per-view StatsArena
  // and published in definition order, so all AccessStats counters match
  // the sequential run exactly.
  int threads = 1;
  // Worker threads *within* each view's ∆-script (MaintainOptions::threads).
  int script_threads = 1;
  // How far to escalate when a view's epoch fails. Rungs 0 and 1 run
  // wherever the view is being maintained; rungs 2 and 3 run on the
  // calling thread after every view finished (they touch shared state).
  DegradePolicy degrade = DegradePolicy::kQuarantine;
  // Fault-injection hook threaded through to every epoch (and the
  // recompute rung); nullptr disables.
  FaultInjector* fault = nullptr;
  // Cooperative watchdog deadline for this refresh (robust::Deadline),
  // checked at every epoch fault site. Once expired, in-flight epochs fail
  // with kDeadlineExceeded and walk the ladder like any other failure; the
  // recompute rung itself is not deadline-checked, so the refresh always
  // terminates with serviceable-or-quarantined views rather than hanging.
  // The caller arms it; nullptr disables.
  robust::Deadline* deadline = nullptr;
  // Per-epoch stored-row mutation budget (MaintainOptions::max_epoch_ops).
  int64_t max_epoch_ops = 0;
  // Span recorder threaded through to every epoch (MaintainOptions::trace);
  // the refresh itself records a "refresh" span and the ladder records
  // "ladder" spans for recompute/quarantine rungs. nullptr falls back to
  // obs::GlobalTrace().
  obs::TraceRecorder* trace = nullptr;
};

// One view's trip down the degradation ladder during a TryRefresh.
struct ViewIncident {
  std::string view;
  Status error;          // the original epoch failure
  int rung = 0;          // deepest rung taken: 0 rollback, 1 retry,
                         // 2 recompute, 3 quarantine
  bool recovered = false;  // view left serviceable and current
};

struct RefreshReport {
  // Per-view costs for every view that ended the refresh serviceable.
  // Views recovered by the recompute rung appear with a zero MaintainResult
  // (their cost is charged to the database stats, counted under
  // recompute_fallbacks); quarantined views are absent.
  std::map<std::string, MaintainResult> results;
  // One entry per view whose first epoch attempt failed, definition order.
  std::vector<ViewIncident> incidents;
};

class ViewManager {
 public:
  explicit ViewManager(Database* db,
                       RefreshMode mode = RefreshMode::kDeferred);

  // Compiles, materializes and registers a view. Returns the maintainer for
  // introspection (owned by the manager).
  Maintainer& DefineView(const std::string& name, const PlanPtr& plan,
                         const CompilerOptions& options = {});

  bool HasView(const std::string& name) const;
  Maintainer& GetView(const std::string& name);
  std::vector<std::string> ViewNames() const;

  // Drops a view and its caches.
  void DropView(const std::string& name);

  // Drops and recompiles every registered view from its plan against the
  // current base tables, preserving definition order. This is recovery's
  // persist::RecoverMode::kRecompute fallback (and a repair tool for views
  // whose materialized state is suspect).
  void RecomputeAllViews();

  // ---- Data modification (logged; eager mode refreshes immediately) ----
  // Each returns false when the change is rejected (duplicate key on
  // insert, absent row on delete/update) without logging or journaling.
  bool Insert(const std::string& table, Row row);
  bool Delete(const std::string& table, const Row& key);
  bool Update(const std::string& table, const Row& key,
              const std::vector<std::string>& set_columns, const Row& values);

  // Deferred mode: maintains every registered view from the accumulated
  // log, clears the log, and returns the per-view costs. In eager mode the
  // log is always empty and this is a no-op. Aborts on maintenance errors
  // the configured ladder cannot absorb — the infallible wrapper around
  // TryRefresh.
  std::map<std::string, MaintainResult> Refresh(
      const RefreshOptions& options = {});

  // Fault-isolated refresh. Every view is maintained as an atomic epoch;
  // a failed epoch rolls its view back to pre-refresh contents and walks
  // the options.degrade ladder: retry single-threaded → rematerialize from
  // base tables → quarantine. Each rung is counted in the database's
  // AccessStats (epoch_rollbacks / degraded_retries / recompute_fallbacks /
  // quarantines). Returns non-OK only when the ladder was not allowed to
  // absorb the failure (kFailFast/kRetry/kRecompute policies); the
  // modification log is consumed either way — base-table changes stay
  // applied, and an unserviced view is repaired by RepairView or
  // RecomputeAllViews.
  Status TryRefresh(const RefreshOptions& options, RefreshReport* report);

  // ---- Quarantine (ladder rung 3) ----
  // A quarantined view is skipped by Refresh (its contents go stale) until
  // repaired. Quarantine events are journaled so recovery knows the
  // materialized state is suspect.
  bool IsQuarantined(const std::string& name) const;
  std::vector<std::string> QuarantinedViews() const;
  // Rematerializes the (quarantined or suspect) view from the current base
  // tables and returns it to service.
  void RepairView(const std::string& name);

  // ---- Snapshot-isolated reads (src/mvcc, DESIGN.md "Read concurrency &
  //      versioning") ----
  // Turns on MVCC read mode: every registered view table (and every view
  // defined, loaded or repaired afterwards) is versioned, and each
  // TryRefresh publishes its outcome as one atomic epoch flip. Readers on
  // other threads call OpenSnapshot() and see either the whole refresh or
  // none of it — never a partially applied ∆-script. Idempotent. Off by
  // default: when off, nothing is versioned and no mvcc metric ever
  // registers (the contract-v1 export stays byte-identical).
  void EnableSnapshotReads();
  bool snapshot_reads_enabled() const { return registry_ != nullptr; }

  // Also versions a base table (snapshots then cover base reads too).
  // Its snapshot state advances at refresh boundaries — the epoch commit —
  // not per Insert/Delete/Update. Requires EnableSnapshotReads() first.
  void TrackTableForSnapshots(const std::string& name);

  // A stable read view of every tracked table at the last committed epoch.
  // Safe from any thread, concurrently with a running refresh; the handle
  // pins the versions until destroyed. Requires EnableSnapshotReads().
  mvcc::Snapshot OpenSnapshot() const;

  // The last committed snapshot epoch (0 before any publish).
  uint64_t snapshot_epoch() const;

  // The shared modification logger (Fig. 3). Lets workload generators feed
  // logged changes directly; prefer Insert/Delete/Update in eager mode
  // (changes logged here do not trigger eager refresh).
  ModificationLogger& logger() { return logger_; }

  // Modifications accepted since the last refresh — the staleness signal a
  // serving layer (src/serve) schedules refreshes from.
  size_t PendingModifications() const;

  // Attaches a write-ahead journal (src/persist SegmentedWal): every accepted
  // modification is journaled before it mutates a table, and Refresh
  // journals a COMMIT record delimiting each maintenance batch — the unit
  // recovery replays. Pass nullptr to detach.
  void set_journal(ModificationJournal* journal) {
    logger_.set_journal(journal);
  }

  // ---- ∆-script repository persistence (Fig. 3) ----
  // Serializes every registered view's compiled script. Loading re-attaches
  // the scripts to an existing database whose view/cache tables are intact
  // (the repository stores scripts, not data) and compiles each script; a
  // script that does not compile is rejected, naming its view and the
  // reason, and registers no maintainer. Returns an error message on
  // failure, empty on success.
  std::string SerializeRepository() const;
  std::string LoadRepository(const std::string& text);

 private:
  // Drops and recompiles one view from base tables, charging the
  // materialization. The fault site fires before the drop so an injected
  // failure leaves the old contents intact (the rung is all-or-nothing).
  Status TryRecomputeView(size_t index, FaultInjector* fault);

  Database* db_;
  RefreshMode mode_;
  ModificationLogger logger_;
  // Ordered by definition: later views may (in principle) read earlier ones.
  std::vector<std::pair<std::string, std::unique_ptr<Maintainer>>> views_;
  // Views taken out of service by ladder rung 3.
  std::set<std::string> quarantined_;
  // Non-null iff snapshot reads are enabled (EnableSnapshotReads).
  std::unique_ptr<mvcc::SnapshotRegistry> registry_;
};

}  // namespace idivm

#endif  // IDIVM_CORE_VIEW_MANAGER_H_
