#include "src/serving/admission.h"

#include <algorithm>
#include <chrono>

namespace lightlt::serving {

namespace {
double SteadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options),
      unlimited_(options.rate_per_second <= 0.0 &&
                 options.max_in_flight == 0 && options.max_queue_depth == 0 &&
                 options.degrade_in_flight == 0) {}

double AdmissionController::Now() const {
  return options_.clock ? options_.clock() : SteadyNowSeconds();
}

AdmissionOutcome AdmissionController::TryAdmit(size_t observed_queue_depth) {
  if (unlimited_) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return AdmissionOutcome::kAdmit;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const size_t in_flight = in_flight_.load(std::memory_order_relaxed);

  // Token bucket: refill by elapsed time, then demand one token. The
  // bucket starts full so a fresh service serves its burst immediately.
  if (options_.rate_per_second > 0.0) {
    const double now = Now();
    if (!bucket_started_) {
      tokens_ = std::max(1.0, options_.burst);
      bucket_started_ = true;
    } else {
      tokens_ = std::min(std::max(1.0, options_.burst),
                         tokens_ + (now - last_refill_) *
                                       options_.rate_per_second);
    }
    last_refill_ = now;
    if (tokens_ < 1.0) return AdmissionOutcome::kShed;
  }

  if (options_.max_in_flight > 0 && in_flight >= options_.max_in_flight) {
    return AdmissionOutcome::kShed;
  }

  const bool soft_overloaded =
      (options_.max_queue_depth > 0 &&
       observed_queue_depth > options_.max_queue_depth) ||
      (options_.degrade_in_flight > 0 &&
       in_flight >= options_.degrade_in_flight);
  if (soft_overloaded &&
      options_.on_overload == AdmissionOptions::OverloadPolicy::kShed) {
    return AdmissionOutcome::kShed;
  }

  if (options_.rate_per_second > 0.0) tokens_ -= 1.0;
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  return soft_overloaded ? AdmissionOutcome::kDegrade
                         : AdmissionOutcome::kAdmit;
}

void AdmissionController::Release() {
  size_t n = in_flight_.load(std::memory_order_relaxed);
  while (n > 0 && !in_flight_.compare_exchange_weak(
                      n, n - 1, std::memory_order_relaxed)) {
  }
}

size_t AdmissionController::InFlight() const {
  return in_flight_.load(std::memory_order_relaxed);
}

}  // namespace lightlt::serving
