#include "common/retry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/await.h"
#include "common/random.h"
#include "common/timer_wheel.h"

namespace discsec {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RealSleepUs(int64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

Retryer::Retryer(RetryPolicy policy, Clock clock, SleepFn sleep,
                 uint64_t jitter_seed)
    : policy_(policy),
      clock_(clock ? std::move(clock) : Clock(SteadyNowUs)),
      sleep_(sleep ? std::move(sleep) : SleepFn(RealSleepUs)),
      jitter_seed_(jitter_seed) {}

int64_t Retryer::BackoffForAttempt(int attempt) const {
  double backoff = static_cast<double>(policy_.initial_backoff_us);
  for (int i = 1; i < attempt; ++i) backoff *= policy_.backoff_multiplier;
  backoff = std::min(backoff, static_cast<double>(policy_.max_backoff_us));
  return static_cast<int64_t>(backoff);
}

Status Retryer::Run(const std::function<Status()>& attempt) const {
  return Await<Status>([&](std::function<void(Status)> done) {
    RetryAsync(
        *this, /*wheel=*/nullptr,
        [&attempt](std::function<void(Status)> attempt_done) {
          attempt_done(attempt());
        },
        std::move(done));
  });
}

/// One in-flight retry loop. Kept alive by the attempt callbacks and wheel
/// entries that reference it. Only one attempt is outstanding at a time,
/// and `handoff` orders the two parties that may take the next step.
struct Retryer::Loop : std::enable_shared_from_this<Loop> {
  Loop(Retryer s, TimerWheel* w, RetryAsyncAttempt a,
       std::function<void(Status)> d)
      : schedule(std::move(s)),
        rng(schedule.jitter_seed_),
        wheel(w),
        attempt(std::move(a)),
        done(std::move(d)),
        max_attempts(std::max(schedule.policy_.max_attempts, 1)),
        start_us(schedule.clock_()) {}

  const Retryer schedule;
  Rng rng;
  TimerWheel* const wheel;
  const RetryAsyncAttempt attempt;
  const std::function<void(Status)> done;
  const int max_attempts;
  const int64_t start_us;
  int n = 1;
  int64_t attempt_start_us = 0;
  Status last;
  /// Set by the first of {the attempt's completion, the issuing call
  /// returning}; whichever comes second takes the next step.
  std::atomic<bool> handoff{false};

  /// Issues attempts until one completes off this stack or the loop ends.
  void Attempts() {
    auto self = shared_from_this();
    do {
      attempt_start_us = schedule.clock_();
      handoff.store(false);
      attempt([self](Status s) {
        self->last = std::move(s);
        if (self->handoff.exchange(true) && self->Next()) self->Attempts();
      });
    } while (handoff.exchange(true) && Next());
  }

  /// The verdict ladder, run once per finished attempt. Returns true when
  /// the caller should issue the next attempt now; false when the verdict
  /// went to `done` or the next attempt is parked on the wheel.
  bool Next() {
    const RetryPolicy& policy = schedule.policy_;
    const int64_t now_us = schedule.clock_();
    if (last.ok() || !last.IsRetryable()) return Finish(std::move(last));
    if (policy.attempt_deadline_us > 0 &&
        now_us - attempt_start_us > policy.attempt_deadline_us) {
      return Finish(Status::DeadlineExceeded(
          "attempt " + std::to_string(n) + " ran " +
          std::to_string(now_us - attempt_start_us) +
          "us, past the per-attempt deadline of " +
          std::to_string(policy.attempt_deadline_us) + "us: " +
          last.ToString()));
    }
    if (n == max_attempts) {
      return Finish(last.WithContext("after " + std::to_string(max_attempts) +
                                     " attempts"));
    }
    // A server-supplied hint (an overloaded responder's shed status)
    // overrides the exponential step: the responder knows how long its
    // queues need to drain better than our local schedule does. Jitter
    // still applies below, so a whole shed fleet re-spreads instead of
    // returning in lockstep at hint expiry.
    int64_t backoff_us = last.retry_after_us() > 0
                             ? last.retry_after_us()
                             : schedule.BackoffForAttempt(n);
    if (policy.jitter > 0.0) {
      double fraction = static_cast<double>(rng.NextUint64() >> 11) *
                        0x1.0p-53;  // [0, 1)
      backoff_us -= static_cast<int64_t>(static_cast<double>(backoff_us) *
                                         policy.jitter * fraction);
    }
    if (policy.overall_deadline_us > 0 &&
        (now_us - start_us) + backoff_us >= policy.overall_deadline_us) {
      return Finish(Status::DeadlineExceeded(
          "retry budget of " + std::to_string(policy.overall_deadline_us) +
          "us exhausted after " + std::to_string(n) + " attempt(s): " +
          last.ToString()));
    }
    ++n;
    if (wheel != nullptr) {
      auto self = shared_from_this();
      wheel->ScheduleAfter(backoff_us, [self] { self->Attempts(); });
      return false;
    }
    schedule.sleep_(backoff_us);
    return true;
  }

  bool Finish(Status verdict) {
    done(std::move(verdict));
    return false;
  }
};

void RetryAsync(Retryer schedule, TimerWheel* wheel, RetryAsyncAttempt attempt,
                std::function<void(Status)> done) {
  std::make_shared<Retryer::Loop>(std::move(schedule), wheel,
                                  std::move(attempt), std::move(done))
      ->Attempts();
}

bool CircuitBreaker::Allow(int64_t now_us) {
  if (!open_) return true;
  if (now_us - opened_at_us_ < options_.open_duration_us) return false;
  if (probe_in_flight_) return false;
  probe_in_flight_ = true;  // half-open: admit a single probe
  return true;
}

void CircuitBreaker::RecordSuccess() {
  failures_ = 0;
  open_ = false;
  probe_in_flight_ = false;
}

void CircuitBreaker::RecordFailure(int64_t now_us) {
  ++failures_;
  if (open_) {
    // The half-open probe failed: re-open for a fresh cool-down.
    opened_at_us_ = now_us;
    probe_in_flight_ = false;
    return;
  }
  if (failures_ >= options_.failure_threshold) {
    open_ = true;
    opened_at_us_ = now_us;
    probe_in_flight_ = false;
  }
}

CircuitBreaker::State CircuitBreaker::state(int64_t now_us) const {
  if (!open_) return State::kClosed;
  if (now_us - opened_at_us_ >= options_.open_duration_us) {
    return State::kHalfOpen;
  }
  return State::kOpen;
}

const char* CircuitStateName(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

}  // namespace discsec
