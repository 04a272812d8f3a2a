//===- Quarantine.h - Persistent worker-failure records --------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quarantine record: a small persisted note that an out-of-process
/// enumeration worker for a given (root function, configuration) key kept
/// dying — by signal, hang timeout, protocol violation, or unexplained
/// exit — until its retry budget ran out. A supervised sweep consults the
/// record before spawning a worker and skips known-bad jobs with a
/// diagnostic instead of burning the retry ladder again; a later final
/// result for the same key (e.g. after a fix) clears it.
///
/// Records live in the ArtifactStore next to results,
/// under the same frame, keying, and fingerprint discipline (see
/// ArtifactStore.h); this header is separate only to keep the store's
/// public surface free of supervisor types.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_STORE_QUARANTINE_H
#define POSE_STORE_QUARANTINE_H

#include <cstdint>
#include <string>

namespace pose {
namespace store {

/// How the worker process failed (the crash class, not the stop reason —
/// a quarantined job by definition never produced a usable stop reason).
enum class WorkerFailure : uint8_t {
  Signal = 0, ///< Died by signal (SIGSEGV, OOM SIGKILL, ...).
  Timeout,    ///< Exceeded the supervisor's wall-clock kill timer.
  BadExit,    ///< Exited with an unrecognized nonzero status.
  Protocol,   ///< Exited 0 or 3 without storing the job's final result.
};

/// Short lower-case name ("signal", "timeout", "bad-exit", "protocol").
const char *workerFailureName(WorkerFailure F);

/// Everything the supervisor knows about why a job was quarantined.
struct QuarantineRecord {
  WorkerFailure Failure = WorkerFailure::Signal;
  int32_t Signal = 0;   ///< Terminating signal (Failure == Signal/Timeout).
  int32_t ExitCode = 0; ///< Exit status (Failure == BadExit/Protocol).
  uint32_t Attempts = 0; ///< Total attempts spent before quarantining.
  std::string Message;   ///< Human-readable diagnostic for reports.
};

} // namespace store
} // namespace pose

#endif // POSE_STORE_QUARANTINE_H
