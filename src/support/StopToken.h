//===- StopToken.h - Cooperative cancellation and resource limits -*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-governor layer: a cooperative cancellation token, a
/// wall-clock deadline, and an approximate memory budget, all polled at
/// natural checkpoints (the enumerator's level boundaries, the searchers'
/// evaluation loops, the compilers' phase loops). Long-running explorations
/// must degrade to a well-formed partial result instead of hanging or
/// exhausting the machine; every stopped computation reports *why* it
/// stopped through \ref StopReason.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_STOPTOKEN_H
#define POSE_SUPPORT_STOPTOKEN_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace pose {

/// Why an exploration ended. Complete means it ran to exhaustion; every
/// other value names the limit that stopped it early.
enum class StopReason : uint8_t {
  Complete = 0,    ///< Ran to exhaustion; the result is the full space.
  LevelBudget,     ///< Active sequences at one level exceeded the cap.
  NodeBudget,      ///< Total distinct instances exceeded the cap.
  Deadline,        ///< The wall-clock deadline passed.
  MemoryBudget,    ///< The approximate memory accounting hit its budget.
  Cancelled,       ///< A StopToken requested cooperative cancellation.
  VerifierFailure, ///< A phase broke the IR; its edge was pruned, so the
                   ///< surviving space is sound but not exhaustive.
  InternalError,   ///< An internal invariant failed; partial result only.
  WorkerCrash,     ///< An out-of-process enumeration worker died (signal,
                   ///< OOM kill, or hang timeout); the result is whatever
                   ///< partial DAG survived (see src/drive/Supervisor.h).
};

/// Short lower-case name for messages and CLI output ("deadline", ...).
const char *stopReasonName(StopReason R);

/// Thread-safe cooperative cancellation flag. Producers call requestStop();
/// long-running consumers poll stopRequested() at checkpoints.
class StopToken {
public:
  void requestStop() { Stop.store(true, std::memory_order_relaxed); }
  bool stopRequested() const {
    return Stop.load(std::memory_order_relaxed);
  }
  void reset() { Stop.store(false, std::memory_order_relaxed); }

private:
  std::atomic<bool> Stop{false};
};

/// The steady-clock time \p Ms milliseconds from now, saturating at
/// time_point::max() where the sum would overflow: every millisecond
/// count up to UINT64_MAX means "that far away", never a time in the past.
inline std::chrono::steady_clock::time_point deadlineAfterMs(uint64_t Ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Now = Clock::now();
  const auto Room = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - Now);
  if (Ms >= static_cast<uint64_t>(Room.count()))
    return Clock::time_point::max();
  return Now + std::chrono::milliseconds(Ms);
}

/// Aggregates the three stop conditions behind one check() call. All
/// limits are optional; a default-constructed governor never stops
/// anything. Memory is *accounted*, not measured: callers charge() and
/// release() their dominant allocations (DAG nodes and edges, frontier
/// instances), which keeps the check deterministic across runs and
/// platforms.
///
/// Accounting is atomic, so one governor may be shared by a pool of
/// workers (the parallel enumerator, parallel batch compilation): charges
/// from any thread aggregate into one total, and check() may be polled
/// concurrently. The set*() configuration calls are not synchronized —
/// configure before sharing.
class ResourceGovernor {
public:
  ResourceGovernor() = default;

  /// Copying is a setup-time convenience (factory functions returning a
  /// configured governor); it snapshots the accounting and must not race
  /// with concurrent charge()/release() on the source.
  ResourceGovernor(const ResourceGovernor &O)
      : DeadlineAt(O.DeadlineAt), HasDeadline(O.HasDeadline),
        MemoryBudget(O.MemoryBudget),
        Charged(O.Charged.load(std::memory_order_relaxed)), Token(O.Token) {}
  ResourceGovernor &operator=(const ResourceGovernor &O) {
    DeadlineAt = O.DeadlineAt;
    HasDeadline = O.HasDeadline;
    MemoryBudget = O.MemoryBudget;
    Charged.store(O.Charged.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    Token = O.Token;
    return *this;
  }

  /// Arms a wall-clock deadline \p Ms milliseconds from now; 0 disarms.
  void setDeadline(uint64_t Ms) {
    HasDeadline = Ms != 0;
    if (HasDeadline)
      DeadlineAt = deadlineAfterMs(Ms);
  }

  /// Milliseconds left before the deadline, rounded up so that 0 means
  /// check() reports Deadline; UINT64_MAX when no deadline is armed.
  uint64_t remainingMs() const {
    if (!HasDeadline)
      return UINT64_MAX;
    const auto Left = std::chrono::ceil<std::chrono::milliseconds>(
        DeadlineAt - std::chrono::steady_clock::now());
    return Left.count() > 0 ? static_cast<uint64_t>(Left.count()) : 0;
  }

  /// Sets the approximate memory budget in bytes; 0 = unlimited.
  void setMemoryBudget(uint64_t Bytes) { MemoryBudget = Bytes; }

  /// Attaches a cancellation token (not owned); nullptr detaches.
  void setStopToken(const StopToken *T) { Token = T; }

  /// Accounts \p Bytes of live memory.
  void charge(uint64_t Bytes) {
    Charged.fetch_add(Bytes, std::memory_order_relaxed);
  }

  /// Returns \p Bytes of accounted memory (saturating at zero).
  void release(uint64_t Bytes) {
    uint64_t Cur = Charged.load(std::memory_order_relaxed);
    while (!Charged.compare_exchange_weak(Cur, Cur - std::min(Cur, Bytes),
                                          std::memory_order_relaxed)) {
    }
  }

  uint64_t chargedBytes() const {
    return Charged.load(std::memory_order_relaxed);
  }

  /// True when no limit is armed (check() can never stop).
  bool unlimited() const {
    return !HasDeadline && MemoryBudget == 0 && Token == nullptr;
  }

  /// Returns Complete to keep going, otherwise the reason to stop.
  /// Precedence: Cancelled over Deadline over MemoryBudget, so an
  /// explicit cancellation is never misreported as a timeout.
  StopReason check() const {
    if (Token && Token->stopRequested())
      return StopReason::Cancelled;
    if (HasDeadline && std::chrono::steady_clock::now() >= DeadlineAt)
      return StopReason::Deadline;
    if (MemoryBudget != 0 &&
        Charged.load(std::memory_order_relaxed) > MemoryBudget)
      return StopReason::MemoryBudget;
    return StopReason::Complete;
  }

private:
  std::chrono::steady_clock::time_point DeadlineAt{};
  bool HasDeadline = false;
  uint64_t MemoryBudget = 0;
  std::atomic<uint64_t> Charged{0};
  const StopToken *Token = nullptr;
};

} // namespace pose

#endif // POSE_SUPPORT_STOPTOKEN_H
