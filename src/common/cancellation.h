// Cooperative cancellation for long-running pipeline work.
//
// A CancelToken is shared between a controller (the service engine, which
// arms a deadline at submit time and flips the cancel flag on an explicit
// "cancel" request) and the executing request, which probes `Check()` at
// stage checkpoints: per-rank emulation, the collator fingerprint pass,
// estimation batches, and the simulation replay. A non-OK probe
// unwinds the pipeline through the ordinary Status plumbing BEFORE any
// shared-cache publish, so a cancelled request leaves the trace / estimate /
// sim caches byte-identical to never having run.
//
// The token is purely advisory — nothing is pre-empted. Worker-release
// latency is therefore bounded by the longest stretch of work between two
// checkpoints, not by the total request cost.
//
// `cancel.late_observe` fault site: when armed, a pending cancellation is
// deliberately not observed by one probe (Check() answers Ok once), modeling
// a stage that races past the flag. Cancellation must still land at the next
// checkpoint — the chaos test storms this site to prove no probe is
// load-bearing on its own.
#ifndef SRC_COMMON_CANCELLATION_H_
#define SRC_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <optional>

#include "src/common/fault_injection.h"
#include "src/common/status.h"

namespace maya {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Arms a wall-deadline: probes after `deadline` answer DEADLINE_EXCEEDED.
  // The deadline is observed lazily at probe time — no timer thread.
  void ArmDeadline(std::chrono::steady_clock::time_point deadline) { deadline_ = deadline; }

  // Requests cancellation; the next observed probe answers CANCELLED.
  // Idempotent and thread-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  // True once Cancel() was called or an armed deadline has expired. Unlike
  // Check(), never consults fault injection — this is the controller-side
  // view, not a stage checkpoint.
  bool CancelRequested() const {
    if (cancelled_.load(std::memory_order_acquire)) {
      return true;
    }
    return deadline_.has_value() && std::chrono::steady_clock::now() > *deadline_;
  }

  // Stage-checkpoint probe: Ok while the request should keep running,
  // CANCELLED / DEADLINE_EXCEEDED once it should unwind. A pending
  // cancellation may be deliberately missed by one probe when the
  // `cancel.late_observe` fault site fires (see file comment).
  Status Check() const {
    Status pending = Status::Ok();
    if (cancelled_.load(std::memory_order_acquire)) {
      pending = Status::Cancelled("request cancelled");
    } else if (deadline_.has_value() && std::chrono::steady_clock::now() > *deadline_) {
      pending = Status::DeadlineExceeded("deadline expired while executing");
    }
    if (!pending.ok() &&
        !FaultInjection::Instance().MaybeFail("cancel.late_observe").ok()) {
      return Status::Ok();  // this probe raced past the flag; the next one lands
    }
    return pending;
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

// Probe helper for stages handed an optional token: null means "not
// cancellable" (direct library use, tests, benches) and always passes.
inline Status CheckCancel(const CancelToken* token) {
  return token == nullptr ? Status::Ok() : token->Check();
}

}  // namespace maya

#endif  // SRC_COMMON_CANCELLATION_H_
