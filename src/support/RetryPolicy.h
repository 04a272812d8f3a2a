//===- RetryPolicy.h - Bounded retries with backoff and jitter -*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retry schedule of the supervised sweep: a bounded number of
/// retries, exponential backoff between them, and deterministic jitter so
/// a fleet of supervisors retrying the same flaky dependency does not
/// stampede in lockstep. Jitter is derived from a caller-provided salt
/// (the job's canonical hash) instead of a global RNG, so the same job
/// retried on the same attempt always waits the same amount — retry
/// timing is reproducible, like everything else in the enumerator.
///
/// The policy is budget-aware: when the whole sweep runs under a
/// wall-clock deadline, a retry whose backoff delay would eat the rest of
/// the budget is refused outright (the job degrades instead of burning
/// the other jobs' time sleeping).
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_RETRYPOLICY_H
#define POSE_SUPPORT_RETRYPOLICY_H

#include <cstdint>

namespace pose {

struct RetryPolicy {
  /// Retries after the first attempt; MaxRetries + 1 total attempts.
  unsigned MaxRetries = 2;
  /// Backoff before retry #1; doubles per retry.
  uint64_t BaseDelayMs = 100;
  /// Backoff ceiling (before jitter).
  uint64_t MaxDelayMs = 5'000;
  /// Additive jitter as a percentage of the backoff: the actual delay is
  /// backoff + [0, backoff * JitterPct / 100], deterministic in (salt,
  /// retry index). 0 disables jitter.
  uint32_t JitterPct = 20;

  /// True while another retry is allowed after \p FailedAttempts failures.
  bool shouldRetry(unsigned FailedAttempts) const {
    return FailedAttempts <= MaxRetries;
  }

  /// Exponential backoff before retry \p Retry (1-based), without jitter:
  /// BaseDelayMs * 2^(Retry-1), saturating at MaxDelayMs.
  uint64_t backoffMs(unsigned Retry) const;

  /// Backoff plus deterministic jitter derived from \p Salt.
  uint64_t delayMs(unsigned Retry, uint64_t Salt) const;

  /// Budget-aware delay for retry \p Retry: false when retries are
  /// exhausted, or when the delay would consume the remaining
  /// \p RemainingMs (a retry that can only start after the deadline is
  /// pointless; pass UINT64_MAX when there is no deadline). On success
  /// \p DelayOut is the time to sleep.
  bool nextDelayMs(unsigned Retry, uint64_t Salt, uint64_t RemainingMs,
                   uint64_t &DelayOut) const;
};

} // namespace pose

#endif // POSE_SUPPORT_RETRYPOLICY_H
