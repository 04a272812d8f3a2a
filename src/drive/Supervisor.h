//===- Supervisor.h - Supervised out-of-process enumeration ----*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervised sweep: a module's per-function enumeration jobs, each
/// run in a sandboxed `posec --worker` child process (see
/// src/support/Subprocess.h), so that a worker that SIGSEGVs, gets OOM
/// killed, or hangs costs one classified job failure instead of the whole
/// sweep. Up to \ref SupervisorOptions::SweepJobs workers run
/// concurrently through a bounded SubprocessPool; scheduling never
/// changes observable output (see the SweepJobs field). The supervisor
/// owns:
///
///  - a \ref RetryPolicy: bounded retries with exponential backoff and
///    deterministic jitter, refused when the sweep's wall-clock budget
///    could not absorb the delay;
///  - a persisted quarantine list (\ref store::QuarantineRecord in the
///    job's own artifact store): a job that exhausts its retries crashing
///    is recorded, and later sweeps skip it with a diagnostic instead of
///    burning the retry ladder again; the worker's saveResult clears the
///    record once the job succeeds;
///  - graceful degradation: an exhausted job falls back to the newest
///    checkpoint artifact when one exists (a partial DAG marked
///    \ref StopReason::WorkerCrash), else to an in-process fixed-order
///    batch compilation — the job is reported Degraded and the sweep
///    carries on.
///
/// A sweep deadline (SweepDeadlineMs) that comes before the per-worker
/// timeout reaches the worker as its own --deadline-ms, the time left:
/// the worker stops at a level barrier, saves its checkpoint and exits 4,
/// and the job degrades to that partial DAG, which a later sweep resumes.
/// The worker's kill timer is shortened to the time left plus a grace for
/// that checkpoint write. When such a shortened timer fires,
/// the sweep ran out of time; the worker did not hang. The job then
/// degrades at once as a \ref StopReason::Deadline stop, with no retry
/// and no quarantine record.
///
/// A worker reports through its documented exit code
/// (src/drive/ExitCodes.h) and the artifact store, which both sides key
/// identically (crash-class injected faults are execution-only and
/// excluded from the config fingerprint, so a fault-injected worker
/// shares artifacts with a clean one). After exit 0 or 3 the supervisor
/// loads the job's result from the store, after a resumable stop its
/// checkpoint. A clean exit with no stored result — a child that never
/// reached the enumerator, or a worker keying the store differently — is
/// a protocol failure, classified like a crash.
///
/// Every worker gets the same command line for its job, built by the
/// supervisor alone: the only per-attempt difference is that injected
/// fault flags reach attempts 1..FaultAttempts and no later one, so a
/// worker never needs to know which attempt it is.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_DRIVE_SUPERVISOR_H
#define POSE_DRIVE_SUPERVISOR_H

#include "src/support/RetryPolicy.h"
#include "src/support/StopToken.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pose {

class Module;
class PhaseManager;
struct HashTriple;

namespace drive {

/// Everything a supervised sweep needs. The enumeration knobs mirror the
/// posec flags they are forwarded as; the supervisor derives the store
/// fingerprint from them exactly as the worker will, so both sides agree
/// on artifact keys.
struct SupervisorOptions {
  std::string PosecPath; ///< Worker executable (this very binary).
  std::string InputPath; ///< The .mc source file workers recompile.
  /// Embedded workload name (--workload=NAME); workers get this flag
  /// instead of an input path when set. Exactly one of InputPath/Workload
  /// is nonempty.
  std::string Workload;
  /// Artifact store; required. It holds the results and checkpoints the
  /// workers write and the quarantine records the supervisor writes.
  std::string StoreDir;

  // Enumeration knobs forwarded to workers (fingerprint-relevant ones
  // must match tools/posec.cpp makeEnumConfig).
  uint64_t Budget = 1'000'000; ///< --budget (level-sequence cap).
  uint64_t Jobs = 1;           ///< --jobs inside each worker.
  uint64_t MaxMemoryMb = 0;    ///< --max-memory-mb per worker (0 = off).
  bool VerifyIr = false;       ///< --verify-ir.

  // Semantic equivalence (src/sem). With Equiv set, workers also compute
  // and persist the equivalence record of every finished DAG, and a job
  // only counts as Cached when both its result AND its equivalence record
  // (under VectorSeed/Vectors) are already stored.
  bool Equiv = false;      ///< --equiv forwarded to workers.
  uint64_t VectorSeed = 0; ///< --vector-seed forwarded when Equiv.
  uint64_t Vectors = 0;    ///< --vectors forwarded when Equiv.

  // Fault injection (tests, CI), forwarded as worker flags.
  /// --inject-fault text for workers. It must be an all-crash-class plan
  /// (segv/kill/hang): those are execution-only and excluded from the
  /// config fingerprint, so a faulted worker keys the store as a clean
  /// one does.
  std::string FaultSpec;
  std::string FaultIoSpec;   ///< --fault-io text for workers (injected
                             ///< store I/O failures; execution-only, so
                             ///< keys are unaffected).
  std::string FaultFunc;     ///< Only this function's worker gets the
                             ///< fault flags; empty = all workers.
  /// The fault flags go only to attempts 1..FaultAttempts of a job, so a
  /// retry ladder crashes that often and then runs clean (0 = every
  /// attempt).
  uint64_t FaultAttempts = 0;

  // Sharding (--shard=K/N). ShardCount 0 or 1 = unsharded: every job is
  // this supervisor's. Otherwise only jobs whose canonical root hashes to
  // shard ShardIndex (1-based) run here; the rest are reported
  // JobStatus::OtherShard and skipped. The assignment is a pure function
  // of the root triple (see shardOfRoot), so N supervisors with disjoint
  // shard indices cover every job exactly once — and a later
  // `posec --merge-store` union of their stores is byte-identical to one
  // unsharded sweep's store.
  uint64_t ShardIndex = 0; ///< 1-based shard of this supervisor.
  uint64_t ShardCount = 0; ///< Total shards (0 = unsharded).

  // Supervision policy.
  uint64_t WorkerTimeoutMs = 60'000; ///< Wall-clock kill timer per spawn.
  uint64_t WorkerRlimitMb = 0;       ///< RLIMIT_AS cap per worker (0 = off).
  /// Whole-sweep budget (0 = none). The sweep can end up to 500 ms past
  /// it, the grace a worker cut short by it gets to write its checkpoint,
  /// plus the in-process fallback of the jobs it left unfinished.
  uint64_t SweepDeadlineMs = 0;
  RetryPolicy Retry;                 ///< Backoff schedule between attempts.
  /// Maximum worker processes in flight at once (--sweep-jobs); clamped
  /// to at least 1. Execution-only: the report, stored artifacts, and
  /// quarantine records are byte-identical for any value — jobs whose
  /// functions canonicalize to the same root (and therefore share store
  /// keys) are serialized in function order, every other job is
  /// independent, and the report always commits in function order.
  uint64_t SweepJobs = 1;
};

/// How one job ended.
enum class JobStatus : uint8_t {
  Ok,          ///< A worker finished; the result is in the store.
  Cached,      ///< The store already held a finished result; no spawn.
  Degraded,    ///< Retries exhausted; partial/fallback result only.
  Quarantined, ///< Skipped: a persisted quarantine record names this job.
  Failed,      ///< Could not even run (spawn failure, store I/O error).
  OtherShard,  ///< Sharded sweep: the job belongs to a different shard
               ///< index and was not run here. Neutral for the exit code.
};

/// Deterministic shard assignment of a root triple: a value in
/// [0, ShardCount) that depends only on the triple's 12 canonical bytes
/// (FNV-1a, little-endian), never on host, locale, or standard-library
/// hashing — so every supervisor, on any machine, agrees which shard owns
/// which root. \p ShardCount must be nonzero.
uint64_t shardOfRoot(const HashTriple &Root, uint64_t ShardCount);

/// Short lower-case name ("ok", "cached", "degraded", ...).
const char *jobStatusName(JobStatus S);

/// Outcome of one per-function job.
struct JobOutcome {
  std::string Func;
  JobStatus Status = JobStatus::Failed;
  unsigned Attempts = 0; ///< Worker spawns consumed (0 for Cached/skip).
  /// Stop reason of the best available result: the worker's on success,
  /// WorkerCrash for a crash-degraded job, the transient reason for a
  /// budget-degraded one.
  StopReason Stop = StopReason::InternalError;
  uint64_t Nodes = 0; ///< DAG nodes in the best available result.
  bool NewlyQuarantined = false; ///< This sweep wrote the record.
  std::string Detail; ///< Human-readable diagnostic for the report.
};

/// The whole sweep.
struct SweepReport {
  std::vector<JobOutcome> Jobs;
  std::string Error; ///< Sweep-level failure (store unusable, ...).
  /// `*.pose.tmp` leftovers of crashed writers, reclaimed from the store
  /// before any worker was spawned (the only moment the supervisor knows
  /// no writer can be mid-write).
  std::vector<std::string> ReclaimedTmp;

  /// Process exit code for the sweep, most severe condition wins:
  /// Error/Failed (1), then a degraded job's own code (WorkerCrash = 7,
  /// or the transient reason's code), then QuarantinedSkip (8), else 0.
  int exitCode() const;
};

/// Runs one supervised sweep over every function of \p M, keeping up to
/// SweepJobs worker processes in flight through a SubprocessPool.
/// \p PM is used for store keying and the batch-compile fallback only;
/// all enumeration happens in child processes. The report is committed
/// in function order regardless of completion order.
SweepReport superviseModule(const PhaseManager &PM, const Module &M,
                            const SupervisorOptions &Opts);

} // namespace drive
} // namespace pose

#endif // POSE_DRIVE_SUPERVISOR_H
