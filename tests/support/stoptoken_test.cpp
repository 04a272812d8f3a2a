//===- stoptoken_test.cpp - Cancellation and resource governor tests ------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/StopToken.h"

#include <gtest/gtest.h>

#include <thread>

using namespace pose;

namespace {

TEST(StopToken, RequestAndReset) {
  StopToken T;
  EXPECT_FALSE(T.stopRequested());
  T.requestStop();
  EXPECT_TRUE(T.stopRequested());
  T.reset();
  EXPECT_FALSE(T.stopRequested());
}

TEST(StopReasonName, AllValuesNamed) {
  EXPECT_STREQ(stopReasonName(StopReason::Complete), "complete");
  EXPECT_STREQ(stopReasonName(StopReason::LevelBudget), "level-budget");
  EXPECT_STREQ(stopReasonName(StopReason::NodeBudget), "node-budget");
  EXPECT_STREQ(stopReasonName(StopReason::Deadline), "deadline");
  EXPECT_STREQ(stopReasonName(StopReason::MemoryBudget), "memory-budget");
  EXPECT_STREQ(stopReasonName(StopReason::Cancelled), "cancelled");
  EXPECT_STREQ(stopReasonName(StopReason::VerifierFailure),
               "verifier-failure");
  EXPECT_STREQ(stopReasonName(StopReason::InternalError), "internal-error");
}

TEST(ResourceGovernor, UnlimitedByDefault) {
  ResourceGovernor Gov;
  EXPECT_TRUE(Gov.unlimited());
  EXPECT_EQ(Gov.check(), StopReason::Complete);
  Gov.charge(1'000'000'000);
  EXPECT_EQ(Gov.check(), StopReason::Complete);
}

TEST(ResourceGovernor, DeadlineExpires) {
  ResourceGovernor Gov;
  Gov.setDeadline(1);
  EXPECT_FALSE(Gov.unlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(Gov.check(), StopReason::Deadline);
  // Disarming restores Complete.
  Gov.setDeadline(0);
  EXPECT_EQ(Gov.check(), StopReason::Complete);
}

TEST(ResourceGovernor, RemainingMsCountsDownToTheDeadline) {
  ResourceGovernor Gov;
  EXPECT_EQ(Gov.remainingMs(), UINT64_MAX); // No deadline armed.
  Gov.setDeadline(60'000);
  EXPECT_GT(Gov.remainingMs(), 50'000u);
  EXPECT_LE(Gov.remainingMs(), 60'000u);
  Gov.setDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(Gov.remainingMs(), 0u);
  EXPECT_EQ(Gov.check(), StopReason::Deadline);
  Gov.setDeadline(0);
  EXPECT_EQ(Gov.remainingMs(), UINT64_MAX);
}

TEST(ResourceGovernor, HugeDeadlinesSaturateInsteadOfWrapping) {
  // Each is a valid --deadline-ms value. Added to the clock unchecked,
  // the first two overflow its 64-bit nanosecond count and 2^64-1 even
  // wraps to -1 ms: a deadline in the past that fires at once.
  for (uint64_t Ms : {uint64_t{9'223'372'036'854}, uint64_t{1} << 63,
                      UINT64_MAX}) {
    ResourceGovernor Gov;
    Gov.setDeadline(Ms);
    EXPECT_EQ(Gov.check(), StopReason::Complete) << Ms;
    EXPECT_GT(Gov.remainingMs(), uint64_t{1} << 40) << Ms;
  }
  EXPECT_EQ(deadlineAfterMs(UINT64_MAX),
            std::chrono::steady_clock::time_point::max());
}

TEST(ResourceGovernor, MemoryAccounting) {
  ResourceGovernor Gov;
  Gov.setMemoryBudget(100);
  Gov.charge(60);
  EXPECT_EQ(Gov.check(), StopReason::Complete);
  Gov.charge(60);
  EXPECT_EQ(Gov.chargedBytes(), 120u);
  EXPECT_EQ(Gov.check(), StopReason::MemoryBudget);
  Gov.release(60);
  EXPECT_EQ(Gov.check(), StopReason::Complete);
  // Release saturates at zero instead of wrapping.
  Gov.release(1'000);
  EXPECT_EQ(Gov.chargedBytes(), 0u);
}

TEST(ResourceGovernor, CancellationWinsOverOtherReasons) {
  StopToken T;
  ResourceGovernor Gov;
  Gov.setStopToken(&T);
  Gov.setMemoryBudget(1);
  Gov.charge(10);
  EXPECT_EQ(Gov.check(), StopReason::MemoryBudget);
  T.requestStop();
  EXPECT_EQ(Gov.check(), StopReason::Cancelled);
}

} // namespace
