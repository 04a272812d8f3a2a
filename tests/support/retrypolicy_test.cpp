//===- retrypolicy_test.cpp - Retry schedule tests ------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/RetryPolicy.h"

#include <gtest/gtest.h>

using namespace pose;

namespace {

TEST(RetryPolicy, BackoffDoublesAndSaturates) {
  RetryPolicy P;
  P.BaseDelayMs = 100;
  P.MaxDelayMs = 1'000;
  EXPECT_EQ(P.backoffMs(0), 0u); // "Retry 0" is the first attempt.
  EXPECT_EQ(P.backoffMs(1), 100u);
  EXPECT_EQ(P.backoffMs(2), 200u);
  EXPECT_EQ(P.backoffMs(3), 400u);
  EXPECT_EQ(P.backoffMs(4), 800u);
  EXPECT_EQ(P.backoffMs(5), 1'000u);  // Capped.
  EXPECT_EQ(P.backoffMs(60), 1'000u); // No overflow at large counts.
}

TEST(RetryPolicy, JitterIsBoundedAndDeterministic) {
  RetryPolicy P;
  P.BaseDelayMs = 100;
  P.MaxDelayMs = 10'000;
  P.JitterPct = 20;
  for (unsigned Retry = 1; Retry <= 5; ++Retry) {
    for (uint64_t Salt : {0ull, 1ull, 0xDEADBEEFull}) {
      const uint64_t Backoff = P.backoffMs(Retry);
      const uint64_t D = P.delayMs(Retry, Salt);
      EXPECT_GE(D, Backoff);
      EXPECT_LE(D, Backoff + Backoff * P.JitterPct / 100);
      // Reproducible: same (salt, retry) always waits the same time.
      EXPECT_EQ(D, P.delayMs(Retry, Salt));
    }
  }
  // Different salts de-synchronize (true for these specific salts).
  EXPECT_NE(P.delayMs(3, 1), P.delayMs(3, 2));
}

TEST(RetryPolicy, ZeroJitterIsPureBackoff) {
  RetryPolicy P;
  P.BaseDelayMs = 50;
  P.JitterPct = 0;
  EXPECT_EQ(P.delayMs(2, 12345), 100u);
}

TEST(RetryPolicy, RetriesAreBounded) {
  RetryPolicy P;
  P.MaxRetries = 2;
  EXPECT_TRUE(P.shouldRetry(1));
  EXPECT_TRUE(P.shouldRetry(2));
  EXPECT_FALSE(P.shouldRetry(3)); // 3 failures = 3 attempts = budget spent.
  uint64_t Delay = 0;
  EXPECT_FALSE(P.nextDelayMs(3, 0, UINT64_MAX, Delay));
}

TEST(RetryPolicy, DeadlineAwareRefusal) {
  RetryPolicy P;
  P.BaseDelayMs = 100;
  P.JitterPct = 0;
  uint64_t Delay = 0;
  // Plenty of budget: retry allowed.
  EXPECT_TRUE(P.nextDelayMs(1, 0, 1'000, Delay));
  EXPECT_EQ(Delay, 100u);
  // The backoff would eat the whole remaining budget: refused.
  EXPECT_FALSE(P.nextDelayMs(1, 0, 100, Delay));
  EXPECT_FALSE(P.nextDelayMs(1, 0, 50, Delay));
  // No deadline: always allowed while retries remain.
  EXPECT_TRUE(P.nextDelayMs(1, 0, UINT64_MAX, Delay));
}

TEST(RetryPolicy, ZeroBaseDelayMeansImmediateRetry) {
  RetryPolicy P;
  P.BaseDelayMs = 0;
  uint64_t Delay = 99;
  EXPECT_TRUE(P.nextDelayMs(1, 7, 1, Delay));
  EXPECT_EQ(Delay, 0u);
}

} // namespace
