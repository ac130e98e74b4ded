#ifndef DISCSEC_COMMON_RETRY_H_
#define DISCSEC_COMMON_RETRY_H_

#include <functional>
#include <string>

#include "common/result.h"

namespace discsec {

/// gRPC-style retry policy: bounded attempts, exponential backoff with
/// jitter, and two deadlines. All times are microseconds. Only statuses
/// with Status::IsRetryable() (kUnavailable) are retried; everything else
/// is returned to the caller on the first attempt. A failed attempt whose
/// Status carries a retry_after_us() hint (a shedding responder's
/// retry-after) replaces the exponential step for that backoff — jitter
/// still applies, so hinted fleets decorrelate.
struct RetryPolicy {
  int max_attempts = 3;
  int64_t initial_backoff_us = 1000;
  double backoff_multiplier = 2.0;
  int64_t max_backoff_us = 1000000;
  /// Fraction of the computed backoff randomized away (0 = deterministic,
  /// 0.2 = sleep in [0.8b, b]). Decorrelates retry storms across clients.
  double jitter = 0.0;
  /// An attempt that fails after running longer than this is not retried
  /// (the operation is too slow to be worth hammering). 0 = unbounded.
  int64_t attempt_deadline_us = 0;
  /// Total budget across attempts and backoffs; once the next backoff
  /// would cross it, the retryer gives up with kDeadlineExceeded.
  /// 0 = unbounded.
  int64_t overall_deadline_us = 0;
};

class TimerWheel;

/// An attempt that completes through a callback — inline or on another
/// thread — instead of returning. The attempt must invoke its callback
/// exactly once.
using RetryAsyncAttempt =
    std::function<void(std::function<void(Status)> attempt_done)>;

/// A retry schedule: a RetryPolicy plus its clock, its blocking wait and
/// its jitter seed. Clock and sleep are injectable so tests drive deadlines
/// with a fake clock and *no real sleeping*; the defaults use the steady
/// clock and a real sleep. Every run replays the jitter stream from the
/// seed, so equal seeds replay equal schedules.
class Retryer {
 public:
  using Clock = std::function<int64_t()>;        ///< now, microseconds
  using SleepFn = std::function<void(int64_t)>;  ///< sleep N microseconds

  explicit Retryer(RetryPolicy policy, Clock clock = {}, SleepFn sleep = {},
                   uint64_t jitter_seed = 0);

  /// Runs `attempt` until it returns OK, a non-retryable status, or the
  /// policy is exhausted. The returned status keeps the last attempt's
  /// code; exhaustion annotates the message with the attempt count and
  /// deadline overruns surface as kDeadlineExceeded. A blocking adapter:
  /// RetryAsync with inline attempts and `sleep` as the wait, reached
  /// through Await.
  Status Run(const std::function<Status()>& attempt) const;

  /// The backoff before retry number `attempt` (1-based, pre-jitter);
  /// exposed so tests can assert the exponential schedule.
  int64_t BackoffForAttempt(int attempt) const;

 private:
  friend void RetryAsync(Retryer schedule, TimerWheel* wheel,
                         RetryAsyncAttempt attempt,
                         std::function<void(Status)> done);
  struct Loop;

  RetryPolicy policy_;
  Clock clock_;
  SleepFn sleep_;
  uint64_t jitter_seed_;
};

/// The retry loop: runs `attempt` under `schedule` and reports the verdict
/// through `done`, exactly once, on whatever thread finished the last
/// attempt (or the wheel thread when the verdict was reached after a
/// backoff). Between attempts the loop parks on `wheel`, so a pool worker
/// is never held hostage by a struggling trust service; with a null wheel
/// it waits with the schedule's blocking sleep on the completing thread.
/// An attempt that completes inline continues the loop on the same stack
/// frame instead of recursing.
void RetryAsync(Retryer schedule, TimerWheel* wheel, RetryAsyncAttempt attempt,
                std::function<void(Status)> done);

/// A minimal circuit breaker (closed -> open -> half-open): after
/// `failure_threshold` consecutive failures the circuit opens and calls are
/// rejected outright until `open_duration_us` has passed; then one probe is
/// let through — success closes the circuit, failure re-opens it. Callers
/// supply timestamps so tests use a fake clock.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    int failure_threshold = 5;
    int64_t open_duration_us = 5000000;
  };

  CircuitBreaker() : CircuitBreaker(Options()) {}
  explicit CircuitBreaker(Options options) : options_(options) {}

  /// Whether a call may proceed at time `now_us`. In the half-open state
  /// exactly one probe is admitted per open period.
  bool Allow(int64_t now_us);
  void RecordSuccess();
  void RecordFailure(int64_t now_us);

  State state(int64_t now_us) const;
  int consecutive_failures() const { return failures_; }

 private:
  Options options_;
  int failures_ = 0;
  bool open_ = false;
  bool probe_in_flight_ = false;
  int64_t opened_at_us_ = 0;
};

const char* CircuitStateName(CircuitBreaker::State state);

}  // namespace discsec

#endif  // DISCSEC_COMMON_RETRY_H_
