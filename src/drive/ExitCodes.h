//===- ExitCodes.h - Documented posec process exit codes -------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process exit-code contract of `posec --worker` and
/// `posec --supervise`. A worker reports through its exit status and the
/// artifact store only: the status tells the supervisor what the stored
/// result must be (final after Ok or VerifyFailure, partial after a
/// resumable stop). So every code below has exactly one meaning and
/// scripts (CI, the supervisor itself) may match on them. Legacy
/// invocations (plain --enumerate and friends) keep their historical
/// 0/1/2 behavior — a deadline-stopped run that stored its partial DAG
/// still exits 0 there, because existing callers treat that as success.
///
/// The `posed` daemon (tools/posed.cpp, docs/SERVICE.md) shares this
/// table: it exits Ok after a graceful SIGTERM/SIGINT drain, Usage for a
/// bad command line, Error for an internal failure, and ServeSocket when
/// the Unix-domain listening socket cannot be created, bound, or is
/// already owned by a live daemon. Per-request failures never change the
/// daemon's exit code — they travel back to the requesting client inside
/// the response frame (the served posec child's exit code, or a protocol
/// error code).
///
//===----------------------------------------------------------------------===//

#ifndef POSE_DRIVE_EXITCODES_H
#define POSE_DRIVE_EXITCODES_H

#include "src/support/StopToken.h"

namespace pose {
namespace drive {

/// Exit codes of posec in --worker and --supervise modes.
enum ExitCode : int {
  Ok = 0,              ///< Finished; the result is usable (possibly a
                       ///< budget-limited but final DAG).
  Error = 1,           ///< Internal or I/O error (store failure, bad input
                       ///< file, InternalError stop).
  Usage = 2,           ///< Bad command line; nothing ran.
  VerifyFailure = 3,   ///< Enumeration finished but a phase broke the IR;
                       ///< the surviving space is sound, not exhaustive.
  Deadline = 4,        ///< Stopped by the wall-clock deadline; the
                       ///< partial DAG was stored (rerun to continue).
  MemoryBudget = 5,    ///< Stopped by the memory budget; partial DAG
                       ///< stored.
  Cancelled = 6,       ///< Stopped by cooperative cancellation; partial
                       ///< DAG stored.
  WorkerCrash = 7,     ///< Supervisor only: a job exhausted its retries
                       ///< crashing and was quarantined/degraded.
  QuarantinedSkip = 8, ///< Supervisor only: at least one job was skipped
                       ///< because of a persisted quarantine record.
  StoreCorrupt = 9,    ///< --fsck found (or --merge-store hit) corrupt,
                       ///< truncated, or orphaned store files that were
                       ///< not repaired away.
  MergeConflict = 10,  ///< --merge-store only: two stores hold
                       ///< byte-different artifacts for the same key;
                       ///< nothing was merged past the conflict.
  EquivDivergence = 11, ///< --equiv-check only: two instances of the same
                        ///< canonical function diverged in observable
                        ///< behavior on a test vector — a phase produced
                        ///< wrong code somewhere on the path between them.
  ServeSocket = 12,     ///< posed only: the listening socket could not be
                        ///< set up (path too long, bind failure, or a
                        ///< live daemon already owns it).
  WatchdogGaveUp = 13,  ///< posed --watchdog only: the daemon kept
                        ///< crashing or hanging past the restart budget
                        ///< (--max-restarts); the watchdog stopped
                        ///< respawning and released the socket. An
                        ///< operator must look before service resumes.
};

/// Maps an enumeration stop reason to the worker's exit code. Budget
/// stops (level/node) are final, fingerprinted results and map to Ok.
inline int exitCodeForStop(StopReason R) {
  switch (R) {
  case StopReason::Complete:
  case StopReason::LevelBudget:
  case StopReason::NodeBudget:
    return Ok;
  case StopReason::VerifierFailure:
    return VerifyFailure;
  case StopReason::Deadline:
    return Deadline;
  case StopReason::MemoryBudget:
    return MemoryBudget;
  case StopReason::Cancelled:
    return Cancelled;
  case StopReason::InternalError:
    return Error;
  case StopReason::WorkerCrash:
    return WorkerCrash;
  }
  return Error;
}

} // namespace drive
} // namespace pose

#endif // POSE_DRIVE_EXITCODES_H
