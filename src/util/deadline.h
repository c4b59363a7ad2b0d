// Request-lifecycle primitives: deadlines and cooperative cancellation.
//
// A Deadline is an absolute point on the steady clock; a CancellationToken
// is a cheap view of a flag its CancellationSource can raise at any time.
// Long-running scan loops bundle both into a ScanControl and poll it at
// chunk granularity (see DESIGN.md §9): the hot loop stays branch-cheap,
// and a request can overshoot its budget by at most one chunk of work.

#ifndef LIGHTLT_UTIL_DEADLINE_H_
#define LIGHTLT_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>

#include "src/util/status.h"

namespace lightlt {

/// An absolute steady-clock expiry time. Default-constructed deadlines are
/// infinite (never expire), so "no deadline" needs no special casing.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `seconds` from now. Non-positive values are already expired.
  static Deadline After(double seconds) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline At(Clock::time_point at) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = at;
    return d;
  }

  bool IsInfinite() const { return infinite_; }
  bool Expired() const { return !infinite_ && Clock::now() >= at_; }

  /// Seconds until expiry; negative once expired, +inf for infinite.
  double RemainingSeconds() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - Clock::now()).count();
  }

  /// The absolute expiry instant (only meaningful when !IsInfinite()).
  Clock::time_point time_point() const { return at_; }

 private:
  bool infinite_ = true;
  Clock::time_point at_{};
};

/// Read side of a cancellation flag. Copies share the flag; a
/// default-constructed token can never be cancelled.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool Cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }
  bool CanBeCancelled() const { return flag_ != nullptr; }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side: hand out tokens, then RequestCancellation() to raise the
/// flag for all of them. Raising is sticky and idempotent.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancellation() {
    flag_->store(true, std::memory_order_relaxed);
  }
  bool CancellationRequested() const {
    return flag_->load(std::memory_order_relaxed);
  }
  CancellationToken token() const { return CancellationToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Per-request scan accounting filled by the index scan loops when a
/// request asks for it (ScanControl::stats). Raw, layer-agnostic numbers
/// only — the serving layer composes them with its own flags into an
/// "explain" record (src/obs/quality.h). Written by exactly one scan at a
/// time (single-request plumbing), so plain fields suffice.
struct ScanStats {
  uint64_t chunks = 0;        ///< scan chunks / probed cells executed
  uint64_t items = 0;         ///< vectors scored
  uint64_t probed_cells = 0;  ///< IVF cells probed (0 on flat scans)
  // Per-phase compute accounting (the request's resource vector,
  // DESIGN.md §16): what the quantized paths actually did, not just how
  // many vectors they touched.
  uint64_t codes_decoded = 0;  ///< quantized codes expanded for exact scores
  uint64_t lut_builds = 0;     ///< per-query ADC lookup-table constructions
  uint64_t shortlist = 0;      ///< fast-scan candidates sent to re-rank

  /// Field-wise sum: a routed request's stats are the sum of its shards'.
  ScanStats& operator+=(const ScanStats& other) {
    chunks += other.chunks;
    items += other.items;
    probed_cells += other.probed_cells;
    codes_decoded += other.codes_decoded;
    lut_builds += other.lut_builds;
    shortlist += other.shortlist;
    return *this;
  }
};

/// Cooperative controls a scan loop polls between chunks. Trivial controls
/// (no deadline, no token) are detected once so the fast path pays nothing.
struct ScanControl {
  Deadline deadline;
  CancellationToken cancel;
  /// Items scored between consecutive Check() calls.
  size_t check_every_items = 1024;
  /// Optional per-request scan accounting (null = off). The pointee must
  /// outlive the scan and belong to this request alone: batch paths that
  /// share one ScanControl across rows must leave it null.
  ScanStats* stats = nullptr;
  /// The request was admitted in degraded mode: searchers skip optional
  /// work (IVF path, over-fetch, re-rank). In-process replicas only; the
  /// wire frame does not carry it, so remote shards ignore it.
  bool degraded = false;

  bool Trivial() const {
    return deadline.IsInfinite() && !cancel.CanBeCancelled();
  }

  /// kCancelled wins over kDeadlineExceeded: an explicit stop request is
  /// the stronger signal and doesn't depend on clock timing.
  Status Check() const {
    if (cancel.Cancelled()) {
      return Status::Cancelled("request cancelled");
    }
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("request deadline exceeded");
    }
    return Status::Ok();
  }
};

}  // namespace lightlt

#endif  // LIGHTLT_UTIL_DEADLINE_H_
