#include "src/mvcc/snapshot.h"

#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace idivm::mvcc {

std::vector<std::string> Snapshot::TableNames() const {
  std::vector<std::string> names;
  names.reserve(versions_.size());
  for (const auto& [name, version] : versions_) names.push_back(name);
  return names;
}

const TableVersion& Snapshot::Read(const std::string& name) const {
  const auto it = versions_.find(name);
  IDIVM_CHECK(it != versions_.end(),
              StrCat("snapshot has no table '", name, "'"));
  return *it->second;
}

void SnapshotRegistry::Track(const Table& table) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Tracking is itself a (single-table) publish: the fresh epoch makes
  // every (table, epoch) pair denote exactly one byte-state.
  ++epoch_;
  current_[table.name()] = TableVersion::Materialize(table, epoch_);
}

void SnapshotRegistry::Untrack(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  current_.erase(name);
}

bool SnapshotRegistry::IsTracked(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_.count(name) > 0;
}

std::vector<std::string> SnapshotRegistry::TrackedTables() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(current_.size());
  for (const auto& [name, version] : current_) names.push_back(name);
  return names;
}

uint64_t SnapshotRegistry::PublishEpoch(const PublishSpec& spec,
                                        const Database& db) {
  const auto flip_start = std::chrono::steady_clock::now();

  // Phase 1 (unlocked): build the new versions. Readers keep serving the
  // current epoch; derivation only reads immutable predecessors and — for
  // rematerialized tables — live tables the maintenance thread owns.
  uint64_t next_epoch;
  std::map<std::string, std::shared_ptr<const TableVersion>> staged;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    next_epoch = epoch_ + 1;
    staged = current_;
  }
  int64_t flipped_rows = 0;
  for (const auto& [name, delta] : spec.deltas) {
    if (spec.rematerialize.count(name) > 0) continue;
    const auto it = staged.find(name);
    if (it == staged.end()) continue;  // untracked since the spec was built
    if (delta.empty()) continue;       // unchanged: keep the version (and
                                       // its older epoch) as-is
    it->second = TableVersion::Derive(it->second, delta, next_epoch);
    flipped_rows += static_cast<int64_t>(delta.size());
  }
  for (const std::string& name : spec.rematerialize) {
    const auto it = staged.find(name);
    if (it == staged.end()) continue;
    IDIVM_CHECK(db.HasTable(name),
                StrCat("rematerialize of dropped table '", name, "'"));
    it->second = TableVersion::Materialize(db.GetTable(name), next_epoch);
    flipped_rows += static_cast<int64_t>(it->second->size());
  }

  // Phase 2 (locked): the flip. Every staged version becomes current and
  // the epoch advances in one critical section, so OpenSnapshot sees either
  // the whole epoch or none of it.
  int64_t flipped_tables = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, version] : staged) {
      const auto it = current_.find(name);
      if (it == current_.end()) continue;  // untracked while we staged
      if (it->second != version) ++flipped_tables;
      it->second = std::move(version);
    }
    epoch_ = next_epoch;
  }

  const double flip_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    flip_start)
          .count();
  static obs::Counter& flips = obs::GlobalCounter("idivm_version_flips_total");
  static obs::Counter& flip_tables =
      obs::GlobalCounter("idivm_version_flip_tables_total");
  static obs::Counter& flip_rows =
      obs::GlobalCounter("idivm_version_flip_rows_total");
  static obs::Histogram& flip_time =
      obs::GlobalHistogram("idivm_version_flip_seconds");
  flips.Increment();
  flip_tables.Increment(flipped_tables);
  flip_rows.Increment(flipped_rows);
  flip_time.Observe(flip_seconds);
  obs::TraceRecorder* const trace = obs::GlobalTrace();
  if (trace != nullptr) {
    obs::TraceSpan span;
    span.name = "version-flip";
    span.category = "mvcc";
    span.tid = obs::TraceRecorder::CurrentThreadId();
    span.dur_us = static_cast<int64_t>(flip_seconds * 1e6);
    span.start_us = trace->NowMicros() - span.dur_us;
    span.args.emplace_back("epoch", static_cast<int64_t>(next_epoch));
    span.args.emplace_back("tables", flipped_tables);
    span.args.emplace_back("rows", flipped_rows);
    trace->Record(std::move(span));
  }
  return next_epoch;
}

Snapshot SnapshotRegistry::OpenSnapshot() const {
  static obs::Counter& opens = obs::GlobalCounter("idivm_snapshot_opens_total");
  opens.Increment();
  Snapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.epoch_ = epoch_;
  snapshot.versions_ = current_;
  return snapshot;
}

uint64_t SnapshotRegistry::committed_epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

}  // namespace idivm::mvcc
