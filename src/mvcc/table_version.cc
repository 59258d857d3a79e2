#include "src/mvcc/table_version.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace idivm::mvcc {

namespace {

// Rebase once the overlay holds at least this many keys AND at least a
// quarter of the base (small tables tolerate proportionally more overlay;
// big overlays on big tables get folded so per-commit copy cost stays
// O(delta) amortized).
constexpr size_t kRebaseMinOverlay = 16;

size_t ApproxValueBytes(const Value& value) {
  size_t bytes = sizeof(Value);
  if (value.type() == DataType::kString) bytes += value.AsString().size();
  return bytes;
}

// idivm_version_rebases_total, bound on the first rebase.
obs::Counter& RebaseCounter() {
  static obs::Counter& rebases =
      obs::GlobalCounter("idivm_version_rebases_total");
  return rebases;
}

// Fires the GC accounting for `bytes` exactly once (called from shared_ptr
// deleters — i.e. on whichever thread drops the last reference).
void ChargeGc(size_t bytes) {
  static obs::Counter& gc_bytes =
      obs::GlobalCounter("idivm_snapshot_gc_bytes_total");
  static obs::Counter& gc_versions =
      obs::GlobalCounter("idivm_snapshot_gc_versions_total");
  gc_bytes.Increment(static_cast<int64_t>(bytes));
  gc_versions.Increment();
  obs::TraceRecorder* const trace = obs::GlobalTrace();
  if (trace != nullptr) {
    obs::TraceSpan span;
    span.name = "version-gc";
    span.category = "mvcc";
    span.tid = obs::TraceRecorder::CurrentThreadId();
    span.start_us = trace->NowMicros();
    span.dur_us = 0;
    span.args.emplace_back("bytes", static_cast<int64_t>(bytes));
    trace->Record(std::move(span));
  }
}

}  // namespace

size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row);
  for (const Value& value : row) bytes += ApproxValueBytes(value);
  return bytes;
}

std::shared_ptr<const TableVersion::Base> TableVersion::BuildBase(
    Relation rows, const std::vector<size_t>& keys) {
  auto base = std::make_unique<Base>();
  base->rows = std::move(rows);
  size_t bytes = sizeof(Base);
  for (size_t slot = 0; slot < base->rows.size(); ++slot) {
    const Row& row = base->rows.rows()[slot];
    base->index.emplace(ProjectRow(row, keys), slot);
    bytes += ApproxRowBytes(row) + sizeof(size_t);
  }
  // The deleter meters the base's reclamation: it runs when the last
  // version sharing this base is released, on that releasing thread.
  return std::shared_ptr<const Base>(base.release(), [bytes](const Base* b) {
    ChargeGc(bytes);
    delete b;
  });
}

std::shared_ptr<const TableVersion> TableVersion::Seal(
    std::unique_ptr<TableVersion> version) {
  size_t bytes = sizeof(TableVersion);
  for (const auto& [key, row] : version->overlay_) {
    bytes += ApproxRowBytes(key);
    if (row.has_value()) bytes += ApproxRowBytes(*row);
  }
  version->own_bytes_ = bytes;
  return std::shared_ptr<const TableVersion>(version.release(),
                                             [bytes](const TableVersion* v) {
                                               ChargeGc(bytes);
                                               delete v;
                                             });
}

std::shared_ptr<const TableVersion> TableVersion::Materialize(
    const Table& table, uint64_t epoch) {
  RebaseCounter().Increment();
  auto version = std::unique_ptr<TableVersion>(new TableVersion());
  version->name_ = table.name();
  version->schema_ = table.schema();
  version->key_indices_ = table.key_indices();
  version->epoch_ = epoch;
  version->base_ = BuildBase(table.SnapshotUncounted(), table.key_indices());
  version->live_rows_ = version->base_->rows.size();
  return Seal(std::move(version));
}

std::shared_ptr<const TableVersion> TableVersion::Derive(
    const std::shared_ptr<const TableVersion>& prev,
    const std::vector<Modification>& delta, uint64_t epoch) {
  IDIVM_CHECK(prev != nullptr, "Derive requires a previous version");
  auto version = std::unique_ptr<TableVersion>(new TableVersion());
  version->name_ = prev->name_;
  version->schema_ = prev->schema_;
  version->key_indices_ = prev->key_indices_;
  version->epoch_ = epoch;
  version->base_ = prev->base_;
  version->overlay_ = prev->overlay_;
  version->live_rows_ = prev->live_rows_;

  const std::vector<size_t>& keys = version->key_indices_;
  for (const Modification& mod : delta) {
    switch (mod.kind) {
      case DiffType::kInsert: {
        version->overlay_[ProjectRow(mod.post, keys)] = mod.post;
        ++version->live_rows_;
        break;
      }
      case DiffType::kDelete: {
        Row key = ProjectRow(mod.pre, keys);
        if (version->base_->index.count(key) > 0) {
          version->overlay_[std::move(key)] = std::nullopt;  // tombstone
        } else {
          version->overlay_.erase(key);  // lived only in the overlay
        }
        IDIVM_CHECK(version->live_rows_ > 0,
                    StrCat("version delta deletes from empty ", prev->name_));
        --version->live_rows_;
        break;
      }
      case DiffType::kUpdate: {
        // Primary keys are immutable (paper footnote 7), so the post image
        // replaces the same key.
        version->overlay_[ProjectRow(mod.post, keys)] = mod.post;
        break;
      }
    }
  }

  // Fold an outgrown overlay into a fresh base so derivation cost stays
  // proportional to the delta, not the table.
  if (version->overlay_.size() >= kRebaseMinOverlay &&
      version->overlay_.size() * 4 >= version->base_->rows.size()) {
    RebaseCounter().Increment();
    Relation folded(version->schema_);
    version->ForEachRow([&folded](const Row& row) { folded.Append(row); });
    version->base_ = BuildBase(std::move(folded), keys);
    version->overlay_.clear();
  }
  return Seal(std::move(version));
}

std::optional<Row> TableVersion::LookupByKey(const Row& key) const {
  const auto it = overlay_.find(key);
  if (it != overlay_.end()) return it->second;  // row, or nullopt (deleted)
  const auto slot = base_->index.find(key);
  if (slot == base_->index.end()) return std::nullopt;
  return base_->rows.rows()[slot->second];
}

void TableVersion::ForEachRow(
    const std::function<void(const Row&)>& fn) const {
  if (overlay_.empty()) {
    for (const Row& row : base_->rows.rows()) fn(row);
    return;
  }
  for (const Row& row : base_->rows.rows()) {
    // Overlaid keys are emitted from the overlay (updated image) or not at
    // all (tombstone).
    if (overlay_.count(ProjectRow(row, key_indices_)) > 0) continue;
    fn(row);
  }
  for (const auto& [key, row] : overlay_) {
    if (row.has_value()) fn(*row);
  }
}

Relation TableVersion::Scan() const {
  Relation out(schema_);
  ForEachRow([&out](const Row& row) { out.Append(row); });
  return out;
}

}  // namespace idivm::mvcc
