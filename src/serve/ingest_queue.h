// The service's front door: a bounded, thread-safe queue of base-table
// modifications waiting to be applied by a MaintenanceService step.
// Producers (request handlers, the streaming bench) only ever touch the
// queue; the engine underneath — ViewManager, WAL, tables — and the drain
// belong to the holder of the service's engine lock. The bound is the
// backpressure point, with three policies for what a full queue does:
//
//   block     producer waits until a step drains space (lossless,
//             transfers the stall upstream);
//   shed      the op is dropped and counted in idivm_ingest_shed_total
//             (lossy, keeps producers real-time);
//   coalesce  same-key updates merge in place (last-write-wins) and a
//             delete supersedes the key's pending updates, shrinking the
//             queue without losing net effect; ops that cannot merge
//             block. Merges count in idivm_ingest_coalesced_total.
//
// Coalescing is sound for exactly the reason the paper's Section 5
// compaction is: the maintenance scripts consume *net* changes, so two
// updates of one tuple between refreshes already collapse downstream.
// Coalescing just moves that collapse ahead of the queue bound.

#ifndef IDIVM_SERVE_INGEST_QUEUE_H_
#define IDIVM_SERVE_INGEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/diff/compaction.h"
#include "src/types/relation.h"

namespace idivm::serve {

enum class BackpressurePolicy { kBlock, kShed, kCoalesce };

const char* BackpressurePolicyName(BackpressurePolicy policy);
// Parses "block" / "shed" / "coalesce".
std::optional<BackpressurePolicy> ParseBackpressurePolicy(
    const std::string& text);

// One queued modification. `row` is the full row for inserts and the
// primary key for deletes and updates; `set_columns`/`values` are
// update-only.
struct IngestOp {
  DiffType kind = DiffType::kInsert;
  std::string table;
  Row row;
  std::vector<std::string> set_columns;
  Row values;
  // When the producer submitted it — the staleness clock starts here.
  std::chrono::steady_clock::time_point enqueued;
};

// Queue bound and the policy applied when producers hit it.
struct IngestQueueOptions {
  size_t capacity = 1024;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
};

// Bounded MPSC modification queue between producer threads and the
// service's steps, implementing the three backpressure policies
// (block / shed / coalesce) and the queue-depth / staleness metrics.
class IngestQueue {
 public:
  explicit IngestQueue(const IngestQueueOptions& options);
  IngestQueue(const IngestQueue&) = delete;
  IngestQueue& operator=(const IngestQueue&) = delete;

  // Producer side. Stamps `op.enqueued` and enqueues it, applying the
  // backpressure policy when the queue is full. Returns false when the op
  // was shed or the queue is closed; true when it was enqueued or
  // coalesced into a pending op.
  bool Submit(IngestOp op);

  // Consumer side: takes every pending op, in submission order.
  std::vector<IngestOp> Drain();
  // Consumer side: blocks, without draining, until an op is pending, the
  // queue is closed or woken, or `due` arrives (max(): no deadline).
  // Returns false once the queue is closed.
  bool WaitUntil(std::chrono::steady_clock::time_point due);
  // Wakes the current or the next WaitUntil.
  void Wake();

  // Closes the queue: blocked producers fail, WaitUntil returns false and
  // later Submits return false. Pending ops stay drainable.
  void Close();

  size_t depth() const;

  // Lifetime totals (also exported as idivm_ingest_* counters).
  uint64_t accepted() const;
  uint64_t shed() const;
  uint64_t coalesced() const;

 private:
  // Merges `op` into a pending same-key op under the coalesce policy.
  // Returns true when `op` is fully absorbed (nothing left to enqueue).
  bool TryCoalesce(const IngestOp& op);

  IngestQueueOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<IngestOp> pending_;
  bool closed_ = false;
  bool woken_ = false;
  uint64_t accepted_ = 0;
  uint64_t shed_ = 0;
  uint64_t coalesced_ = 0;
};

}  // namespace idivm::serve

#endif  // IDIVM_SERVE_INGEST_QUEUE_H_
