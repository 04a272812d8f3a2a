//===- RetryPolicy.cpp - Bounded retries with backoff and jitter --------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/RetryPolicy.h"

using namespace pose;

namespace {

/// splitmix64: a tiny, well-mixed hash for deterministic jitter.
uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

} // namespace

uint64_t RetryPolicy::backoffMs(unsigned Retry) const {
  if (Retry == 0 || BaseDelayMs == 0)
    return 0;
  uint64_t D = BaseDelayMs;
  for (unsigned I = 1; I < Retry; ++I) {
    if (D >= MaxDelayMs / 2 + 1)
      return MaxDelayMs;
    D *= 2;
  }
  return D < MaxDelayMs ? D : MaxDelayMs;
}

uint64_t RetryPolicy::delayMs(unsigned Retry, uint64_t Salt) const {
  const uint64_t Backoff = backoffMs(Retry);
  if (JitterPct == 0 || Backoff == 0)
    return Backoff;
  const uint64_t Span = Backoff * JitterPct / 100 + 1;
  return Backoff + mix64(Salt * 0x100000001B3ull + Retry) % Span;
}

bool RetryPolicy::nextDelayMs(unsigned Retry, uint64_t Salt,
                              uint64_t RemainingMs,
                              uint64_t &DelayOut) const {
  if (!shouldRetry(Retry))
    return false;
  const uint64_t D = delayMs(Retry, Salt);
  if (D >= RemainingMs)
    return false;
  DelayOut = D;
  return true;
}
