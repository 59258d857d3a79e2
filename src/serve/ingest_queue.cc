#include "src/serve/ingest_queue.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace idivm::serve {

namespace {

bool SameKey(const IngestOp& a, const IngestOp& b) {
  return a.table == b.table && CompareRows(a.row, b.row) == 0;
}

}  // namespace

const char* BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kShed:
      return "shed";
    case BackpressurePolicy::kCoalesce:
      return "coalesce";
  }
  return "?";
}

std::optional<BackpressurePolicy> ParseBackpressurePolicy(
    const std::string& text) {
  if (text == "block") return BackpressurePolicy::kBlock;
  if (text == "shed") return BackpressurePolicy::kShed;
  if (text == "coalesce") return BackpressurePolicy::kCoalesce;
  return std::nullopt;
}

IngestQueue::IngestQueue(const IngestQueueOptions& options)
    : options_(options) {}

bool IngestQueue::TryCoalesce(const IngestOp& op) {
  // Inserts never merge: the key does not exist in any pending op's key
  // position (their `row` is a full row, not a key).
  if (op.kind == DiffType::kInsert) return false;

  if (op.kind == DiffType::kUpdate) {
    // Last-write-wins into the newest pending update of the same key with
    // the same column set. Scanning newest-first also guarantees no later
    // delete of the key sits between the merge target and `op`.
    for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
      if (it->kind == DiffType::kInsert || !SameKey(*it, op)) continue;
      if (it->kind == DiffType::kDelete) return false;  // must stay ordered
      if (it->set_columns != op.set_columns) return false;
      it->values = op.values;
      ++coalesced_;
      obs::GlobalCounter("idivm_ingest_coalesced_total").Increment();
      return true;
    }
    return false;
  }

  // A delete supersedes the key's pending updates (their net effect is
  // dead); the delete itself still enqueues.
  size_t removed = 0;
  auto keep = std::remove_if(
      pending_.begin(), pending_.end(), [&](const IngestOp& pending) {
        if (pending.kind != DiffType::kUpdate || !SameKey(pending, op)) {
          return false;
        }
        ++removed;
        return true;
      });
  pending_.erase(keep, pending_.end());
  if (removed > 0) {
    coalesced_ += removed;
    obs::GlobalCounter("idivm_ingest_coalesced_total")
        .Increment(static_cast<int64_t>(removed));
  }
  return false;
}

bool IngestQueue::Submit(IngestOp op) {
  op.enqueued = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return false;

  if (options_.policy == BackpressurePolicy::kCoalesce) {
    if (TryCoalesce(op)) {
      ++accepted_;
      obs::GlobalCounter("idivm_ingest_accepted_total").Increment();
      return true;
    }
  }

  if (pending_.size() >= options_.capacity) {
    switch (options_.policy) {
      case BackpressurePolicy::kShed:
        ++shed_;
        obs::GlobalCounter("idivm_ingest_shed_total").Increment();
        return false;
      case BackpressurePolicy::kBlock:
      case BackpressurePolicy::kCoalesce:
        not_full_.wait(lock, [&] {
          return closed_ || pending_.size() < options_.capacity;
        });
        if (closed_) return false;
        break;
    }
  }

  pending_.push_back(std::move(op));
  ++accepted_;
  obs::GlobalCounter("idivm_ingest_accepted_total").Increment();
  obs::GlobalGauge("idivm_ingest_queue_depth")
      .Set(static_cast<int64_t>(pending_.size()));
  not_empty_.notify_one();
  return true;
}

std::vector<IngestOp> IngestQueue::Drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<IngestOp> drained = std::move(pending_);
  pending_.clear();
  obs::GlobalGauge("idivm_ingest_queue_depth").Set(0);
  not_full_.notify_all();
  return drained;
}

bool IngestQueue::WaitUntil(std::chrono::steady_clock::time_point due) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto ready = [&] { return closed_ || woken_ || !pending_.empty(); };
  if (due == std::chrono::steady_clock::time_point::max()) {
    not_empty_.wait(lock, ready);
  } else {
    not_empty_.wait_until(lock, due, ready);
  }
  woken_ = false;
  return !closed_;
}

void IngestQueue::Wake() {
  std::lock_guard<std::mutex> lock(mutex_);
  woken_ = true;
  not_empty_.notify_all();
}

void IngestQueue::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

size_t IngestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

uint64_t IngestQueue::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

uint64_t IngestQueue::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

uint64_t IngestQueue::coalesced() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return coalesced_;
}

}  // namespace idivm::serve
