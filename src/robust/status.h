// Recoverable-error taxonomy for the maintenance path.
//
// The engine distinguishes two failure classes. *Invariant violations* —
// bugs in the engine itself — stay fatal (IDIVM_CHECK, src/common/check.h).
// *Externally reachable* failures — a corrupt ∆-script loaded from a
// repository dump, a non-effective diff produced by divergent state, an
// exhausted epoch budget, an injected fault — must not take the process
// down: they travel as a Status through Maintainer::TryMaintain,
// TryApplyDiff (src/diff/apply.h) and ViewManager::TryRefresh, where the
// degradation ladder (view_manager.h) can retry, recompute, or quarantine
// instead of aborting. The infallible Maintain / ApplyDiff / Refresh
// entry points remain as thin IDIVM_CHECK wrappers over the Try*
// variants, preserving abort-on-error semantics for callers that have
// nothing to recover to.

#ifndef IDIVM_ROBUST_STATUS_H_
#define IDIVM_ROBUST_STATUS_H_

#include <string>
#include <utility>

#include "src/common/check.h"

namespace idivm {

enum class StatusCode {
  kOk = 0,
  // A caller-supplied argument or flag is malformed.
  kInvalidArgument,
  // A named view / table / diff does not exist.
  kNotFound,
  // The operation requires state the engine is not in (e.g. refreshing a
  // quarantined view).
  kFailedPrecondition,
  // An epoch exceeded its resource budget (MaintainOptions::max_epoch_ops).
  kResourceExhausted,
  // A ∆-script referenced an unregistered diff, an unbound transient, or a
  // column its target table does not have — the script text is damaged.
  // Raised when the script is compiled, before any epoch runs it.
  kCorruptScript,
  // An APPLY found target state inconsistent with the diff (non-effective
  // insert, negative group delta): base tables and views have diverged.
  kApplyConflict,
  // A FaultInjector fired at this site (chaos testing).
  kInjectedFault,
  // A cooperative refresh deadline (robust::Deadline) expired mid-epoch:
  // the watchdog tripped the epoch so the degradation ladder can take over
  // instead of the service hanging on a stalled refresh.
  kDeadlineExceeded,
  // Anything else that should be recoverable but has no better bucket.
  kInternal,
};

const char* StatusCodeName(StatusCode code);

// A cheap value type: OK carries nothing; errors carry a code + message.
class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "CORRUPT_SCRIPT: apply of unregistered diff d7".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
inline Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
inline Status CorruptScriptError(std::string message) {
  return Status(StatusCode::kCorruptScript, std::move(message));
}
inline Status ApplyConflictError(std::string message) {
  return Status(StatusCode::kApplyConflict, std::move(message));
}
inline Status InjectedFaultError(std::string message) {
  return Status(StatusCode::kInjectedFault, std::move(message));
}
inline Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
inline Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

// StatusOr<T>: either a value or a non-OK Status. `value()` checks ok().
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status)  // NOLINT: implicit, like absl
      : status_(std::move(status)) {
    IDIVM_CHECK(!status_.ok(), "StatusOr constructed from OK without value");
  }
  StatusOr(T value)  // NOLINT: implicit
      : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    IDIVM_CHECK(status_.ok(), status_.ToString());
    return value_;
  }
  T& value() & {
    IDIVM_CHECK(status_.ok(), status_.ToString());
    return value_;
  }
  T&& value() && {
    IDIVM_CHECK(status_.ok(), status_.ToString());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

// Propagates a non-OK Status out of the enclosing function.
#define IDIVM_RETURN_IF_ERROR(expr)                   \
  do {                                                \
    ::idivm::Status idivm_status_ = (expr);           \
    if (!idivm_status_.ok()) return idivm_status_;    \
  } while (false)

}  // namespace idivm

#endif  // IDIVM_ROBUST_STATUS_H_
