//===- Supervisor.cpp - Supervised out-of-process enumeration -------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/drive/Supervisor.h"

#include "src/core/Canonical.h"
#include "src/core/Compilers.h"
#include "src/core/Enumerator.h"
#include "src/drive/ExitCodes.h"
#include "src/ir/Function.h"
#include "src/sem/Equivalence.h"
#include "src/store/ArtifactStore.h"
#include "src/support/Fnv.h"
#include "src/support/Subprocess.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

namespace pose {
namespace drive {

namespace {

std::string u64Str(uint64_t V) { return std::to_string(V); }

/// The config both sides key the store with; must mirror posec's
/// makeEnumConfig for the flags the supervisor forwards. The forwarded
/// fault plan is all crash-class, which the fingerprint excludes.
EnumeratorConfig keyingConfig(const SupervisorOptions &O) {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = O.Budget;
  Cfg.Jobs = static_cast<unsigned>(O.Jobs);
  Cfg.MaxMemoryBytes = O.MaxMemoryMb * 1024 * 1024;
  Cfg.VerifyIr = O.VerifyIr;
  return Cfg;
}

/// How long after a worker's own --deadline-ms its kill timer fires: the
/// time the worker has to stop at a level barrier, write its checkpoint
/// and exit. A sweep's last worker can outlast the sweep deadline by this
/// much.
constexpr uint64_t DeadlineGraceMs = 500;

/// The command line of attempt \p Attempt (1-based) of \p Func's job;
/// \p DeadlineMs nonzero becomes the worker's own --deadline-ms.
std::vector<std::string> workerArgv(const SupervisorOptions &O,
                                    const std::string &Func,
                                    unsigned Attempt, uint64_t DeadlineMs) {
  std::vector<std::string> Argv = {
      O.PosecPath,
      O.InputPath.empty() ? "--workload=" + O.Workload : O.InputPath,
      "--worker",
      "--enumerate=" + Func,
      "--store=" + O.StoreDir,
      "--resume",
      "--budget=" + u64Str(O.Budget),
      "--jobs=" + u64Str(O.Jobs),
  };
  if (DeadlineMs != 0)
    Argv.push_back("--deadline-ms=" + u64Str(DeadlineMs));
  if (O.MaxMemoryMb != 0)
    Argv.push_back("--max-memory-mb=" + u64Str(O.MaxMemoryMb));
  if (O.VerifyIr)
    Argv.push_back("--verify-ir");
  if (O.Equiv) {
    Argv.push_back("--equiv");
    Argv.push_back("--vector-seed=" + u64Str(O.VectorSeed));
    Argv.push_back("--vectors=" + u64Str(O.Vectors));
  }
  const bool Faulted =
      (O.FaultFunc.empty() || O.FaultFunc == Func) &&
      (O.FaultAttempts == 0 || Attempt <= O.FaultAttempts);
  if (Faulted) {
    if (!O.FaultSpec.empty())
      Argv.push_back("--inject-fault=" + O.FaultSpec);
    if (!O.FaultIoSpec.empty())
      Argv.push_back("--fault-io=" + O.FaultIoSpec);
  }
  return Argv;
}

/// What one worker spawn taught us.
enum class AttemptClass {
  Done,      ///< Final result in the store.
  Transient, ///< Resumable stop with a stored checkpoint; retry resumes.
  Crash,     ///< Crash-class failure (signal, timeout, protocol, exit).
  Spawn,     ///< fork/exec failed; the job cannot run at all.
  Deadline,  ///< Killed when the sweep's deadline ran out; no retry.
};

struct AttemptOutcome {
  AttemptClass Class = AttemptClass::Crash;
  StopReason Stop = StopReason::InternalError; ///< Valid for Done/Transient.
  uint64_t Nodes = 0;        ///< DAG nodes of the stored result (Done).
  store::QuarantineRecord Q; ///< Valid for Crash (Attempts set later).
  std::string Note;          ///< Spawn error / crash description.
};

/// Classifies a finished worker by its exit status and, where the status
/// promises one, by the artifact it stored for \p Root under \p Fp.
/// \p SweepTimer says the kill timer was the sweep's remaining budget,
/// shorter than the per-worker timeout: its firing is the sweep's
/// deadline, not a hung worker.
AttemptOutcome classifyAttempt(const SubprocessResult &R, uint64_t TimeoutMs,
                               bool SweepTimer,
                               const store::ArtifactStore &Store,
                               const HashTriple &Root, uint64_t Fp) {
  AttemptOutcome A;
  switch (R.Kind) {
  case ExitKind::SpawnFailed:
    A.Class = AttemptClass::Spawn;
    A.Note = R.Error;
    return A;
  case ExitKind::TimedOut:
    A.Note = "worker exceeded the " + u64Str(TimeoutMs) + "ms kill timer";
    if (SweepTimer) {
      A.Class = AttemptClass::Deadline;
      A.Note += " set by the sweep deadline";
      return A;
    }
    A.Class = AttemptClass::Crash;
    A.Q.Failure = store::WorkerFailure::Timeout;
    A.Q.Signal = R.Signal;
    A.Q.Message = A.Note;
    return A;
  case ExitKind::Signalled:
    A.Class = AttemptClass::Crash;
    A.Q.Failure = store::WorkerFailure::Signal;
    A.Q.Signal = R.Signal;
    A.Q.Message = "worker died: signal " + std::to_string(R.Signal);
    A.Note = A.Q.Message;
    return A;
  case ExitKind::PollFailed:
    // The pool's own multiplexer broke, not this worker: treat it like a
    // spawn-level harness failure (no quarantine record — the job never
    // got a fair run) and surface the errno text.
    A.Class = AttemptClass::Spawn;
    A.Note = "subprocess pool failed: " + R.Error;
    return A;
  case ExitKind::Exited:
    break;
  }

  std::string Err;
  if (R.ExitCode == ExitCode::Ok || R.ExitCode == ExitCode::VerifyFailure) {
    EnumerationResult Res;
    const store::LoadStatus St = Store.loadResult(Root, Fp, Res, Err);
    if (St == store::LoadStatus::Hit) {
      A.Class = AttemptClass::Done;
      A.Stop = Res.Stop;
      A.Nodes = Res.Nodes.size();
      return A;
    }
    A.Class = AttemptClass::Crash;
    A.Q.Failure = store::WorkerFailure::Protocol;
    A.Q.ExitCode = R.ExitCode;
    A.Q.Message = "worker exited " + std::to_string(R.ExitCode) +
                  " without storing a result";
    if (St == store::LoadStatus::Rejected)
      A.Q.Message += " (stored result rejected: " + Err + ")";
    A.Note = A.Q.Message;
    return A;
  }
  EnumerationCheckpoint C;
  if ((R.ExitCode == ExitCode::Deadline ||
       R.ExitCode == ExitCode::MemoryBudget ||
       R.ExitCode == ExitCode::Cancelled) &&
      Store.loadCheckpoint(Root, Fp, C, Err) == store::LoadStatus::Hit) {
    A.Class = AttemptClass::Transient;
    A.Stop = C.Partial.Stop;
    A.Note = std::string("worker stopped: ") + stopReasonName(A.Stop) +
             " (checkpoint saved)";
    return A;
  }
  A.Class = AttemptClass::Crash;
  A.Q.Failure = store::WorkerFailure::BadExit;
  A.Q.ExitCode = R.ExitCode;
  A.Q.Message = "worker exited " + std::to_string(R.ExitCode);
  A.Note = A.Q.Message;
  return A;
}

/// Fills the degradation part of \p J after retries are exhausted: the
/// newest checkpoint when one survived, else an in-process fixed-order
/// batch compilation. Never persists anything as a Result — a degraded
/// DAG must not poison the cache.
void degradeJob(JobOutcome &J, const PhaseManager &PM, const Function &F,
                const store::ArtifactStore &Store, const HashTriple &Root,
                uint64_t Fp, StopReason Stop) {
  J.Status = JobStatus::Degraded;
  J.Stop = Stop;
  EnumerationCheckpoint C;
  std::string Err;
  if (Store.loadCheckpoint(Root, Fp, C, Err) == store::LoadStatus::Hit) {
    J.Nodes = C.Partial.Nodes.size();
    J.Detail += "; partial DAG from checkpoint (" + u64Str(J.Nodes) +
                " nodes)";
    return;
  }
  Function Copy = F;
  CompileStats S = batchCompile(PM, Copy);
  J.Nodes = 0;
  J.Detail += "; batch-compile fallback (" + u64Str(S.Attempted) +
              " attempted, " + u64Str(S.Active) + " active: " +
              (S.ActiveSequence.empty() ? "-" : S.ActiveSequence) + ")";
}

} // namespace

const char *jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Cached:
    return "cached";
  case JobStatus::Degraded:
    return "degraded";
  case JobStatus::Quarantined:
    return "quarantined";
  case JobStatus::Failed:
    return "failed";
  case JobStatus::OtherShard:
    return "other-shard";
  }
  return "?";
}

uint64_t shardOfRoot(const HashTriple &Root, uint64_t ShardCount) {
  // FNV-1a over the triple's canonical little-endian bytes. Pure
  // arithmetic, identical on every host — std::hash or byte-order
  // dependent folding would silently assign roots to different shards on
  // different machines, breaking the disjoint-cover guarantee.
  const uint64_t H =
      Fnv1a().le32(Root.InstCount).le32(Root.ByteSum).le32(Root.Crc).value();
  return H % ShardCount;
}

int SweepReport::exitCode() const {
  bool AnyFailed = false, AnySkipped = false;
  int DegradedCode = 0;
  for (const JobOutcome &J : Jobs) {
    if (J.Status == JobStatus::Failed)
      AnyFailed = true;
    else if (J.Status == JobStatus::Quarantined)
      AnySkipped = true;
    else if (J.Status == JobStatus::Degraded) {
      // A crash-degraded job outranks budget-degraded ones.
      const int C = exitCodeForStop(J.Stop);
      if (DegradedCode == 0 || C == ExitCode::WorkerCrash)
        DegradedCode = C;
    }
  }
  if (!Error.empty() || AnyFailed)
    return ExitCode::Error;
  if (DegradedCode != 0)
    return DegradedCode;
  if (AnySkipped)
    return ExitCode::QuarantinedSkip;
  return ExitCode::Ok;
}

SweepReport superviseModule(const PhaseManager &PM, const Module &M,
                            const SupervisorOptions &Opts) {
  SweepReport Report;
  const EnumeratorConfig KeyCfg = keyingConfig(Opts);
  const uint64_t Fp = store::configFingerprint(KeyCfg);
  store::ArtifactStore Store(Opts.StoreDir);
  if (!Store.prepare(Report.Error))
    return Report;
  // Before the first spawn is the one moment no writer can be mid-write:
  // any *.pose.tmp here is an orphan of a crashed earlier run, and left
  // in place it would sit in the store forever (renames go to final
  // names, never reclaiming temps).
  Report.ReclaimedTmp = Store.reclaimTmp();
  const bool HasDeadline = Opts.SweepDeadlineMs != 0;
  ResourceGovernor Sweep;
  Sweep.setDeadline(Opts.SweepDeadlineMs);
  const size_t NumJobs = M.Functions.size();
  const uint64_t SweepJobs = std::max<uint64_t>(1, Opts.SweepJobs);

  // One state machine per function. A job moves Pending -> Running (a
  // worker is in flight) -> back to Pending/Waiting (retry, possibly
  // after a backoff delay) -> Done; the pool multiplexes every Running
  // job's child. The JobOutcome is accumulated in place and committed to
  // the report in function order at the end, so the report is identical
  // regardless of which workers finish first.
  enum class JobPhase : uint8_t { Pending, Waiting, Running, Done };
  struct JobState {
    JobPhase Phase = JobPhase::Pending;
    HashTriple Root;
    /// Index of the previous job with the same root, or SIZE_MAX. Jobs
    /// sharing a root share store keys; running them in function order
    /// (each waits for its predecessor) keeps the sequential semantics —
    /// the second occurrence reuses the first one's result as Cached —
    /// and prevents two workers racing on one artifact file.
    size_t PrevSameRoot = SIZE_MAX;
    unsigned Attempt = 0;
    uint64_t SpawnTimeoutMs = 0; ///< Kill timer of the in-flight attempt.
    /// The in-flight attempt runs under the sweep's deadline, not the
    /// per-worker timeout: its kill timer firing is the sweep's deadline.
    bool SweepTimer = false;
    std::chrono::steady_clock::time_point ReadyAt{}; ///< Valid: Waiting.
    JobOutcome J;
  };
  const bool Sharded = Opts.ShardCount > 1;
  std::vector<JobState> Jobs(NumJobs);
  CanonicalScratch RootScratch; // One for every root of the sweep.
  for (size_t I = 0; I != NumJobs; ++I) {
    JobState &S = Jobs[I];
    S.J.Func = M.Functions[I].Name;
    S.Root = canonicalize(M.Functions[I], RootScratch, false,
                          KeyCfg.RemapRegisters)
                 .Hash;
    for (size_t P = I; P-- > 0;)
      if (Jobs[P].Root == S.Root) {
        S.PrevSameRoot = P;
        break;
      }
    if (Sharded) {
      // Jobs sharing a root share a shard (the assignment is a function
      // of the root alone), so a root group is always wholly ours or
      // wholly another supervisor's — PrevSameRoot chains stay intact.
      const uint64_t Owner = shardOfRoot(S.Root, Opts.ShardCount);
      if (Owner != Opts.ShardIndex - 1) {
        S.J.Status = JobStatus::OtherShard;
        S.J.Stop = StopReason::Complete;
        S.J.Detail = "assigned to shard " + u64Str(Owner + 1) + "/" +
                     u64Str(Opts.ShardCount);
        S.Phase = JobPhase::Done;
      }
    }
  }

  SubprocessPool Pool;
  std::unordered_map<SubprocessPool::JobId, size_t> InFlight;

  // The skip checks the sequential supervisor ran before its attempt
  // ladder, executed when the job first becomes startable (after its
  // root-group predecessor is done, so a predecessor's fresh result is
  // visible as Cached). True when the job completed without a worker.
  auto checkSkips = [&](JobState &S) -> bool {
    JobOutcome &J = S.J;

    // 1. A persisted quarantine record means skip-with-diagnostic: the
    //    retry ladder was already burned on this job in an earlier sweep.
    {
      store::QuarantineRecord Q;
      std::string Err;
      const store::LoadStatus St = Store.loadQuarantine(S.Root, Fp, Q, Err);
      if (St == store::LoadStatus::Hit) {
        J.Status = JobStatus::Quarantined;
        J.Stop = StopReason::WorkerCrash;
        J.Detail = "skipped: quarantined after " +
                   std::to_string(Q.Attempts) + " attempt(s) [" +
                   store::workerFailureName(Q.Failure) + "]: " + Q.Message +
                   "; remove '" +
                   Store.pathFor(S.Root, store::ArtifactKind::Quarantine) +
                   "' to retry";
        return true;
      }
      if (St == store::LoadStatus::Rejected)
        J.Detail = "(rejected quarantine record: " + Err + ") ";
    }

    // 2. A finished cached result needs no worker at all — unless the
    //    sweep also wants equivalence records and this root's is missing
    //    (or was computed under different vectors), in which case a
    //    worker must still run to compute it.
    {
      EnumerationResult Res;
      std::string Err;
      const store::LoadStatus St = Store.loadResult(S.Root, Fp, Res, Err);
      if (St == store::LoadStatus::Hit) {
        bool EquivReady = true;
        if (Opts.Equiv) {
          sem::EquivRecord E;
          std::string EqErr;
          const uint64_t EqFp =
              store::equivFingerprint(Fp, Opts.VectorSeed, Opts.Vectors);
          EquivReady = Store.loadEquivalence(S.Root, EqFp, E, EqErr) ==
                       store::LoadStatus::Hit;
        }
        if (EquivReady) {
          J.Status = JobStatus::Cached;
          J.Stop = Res.Stop;
          J.Nodes = Res.Nodes.size();
          J.Detail += std::string("reusing cached DAG (") +
                      stopReasonName(Res.Stop) + ")";
          return true;
        }
      }
      if (St == store::LoadStatus::Rejected)
        J.Detail += "(rejected stored result: " + Err + ") ";
    }
    return false;
  };

  // One rung of the attempt ladder: classify the finished worker and
  // either finalize the job or schedule the retry.
  auto onResult = [&](size_t Idx, const SubprocessResult &R) {
    JobState &S = Jobs[Idx];
    JobOutcome &J = S.J;
    AttemptOutcome Last = classifyAttempt(R, S.SpawnTimeoutMs, S.SweepTimer,
                                          Store, S.Root, Fp);

    if (Last.Class == AttemptClass::Done) {
      J.Status = JobStatus::Ok;
      J.Stop = Last.Stop;
      J.Nodes = Last.Nodes;
      J.Attempts = S.Attempt;
      J.Detail += std::string(stopReasonName(Last.Stop)) + ", " +
                  u64Str(Last.Nodes) + " nodes, " +
                  std::to_string(S.Attempt) + " attempt(s)";
      S.Phase = JobPhase::Done;
      return;
    }
    if (Last.Class == AttemptClass::Spawn) {
      J.Status = JobStatus::Failed;
      J.Attempts = S.Attempt;
      J.Detail += "cannot spawn worker: " + Last.Note;
      S.Phase = JobPhase::Done;
      return;
    }
    if (Last.Class == AttemptClass::Deadline) {
      // The sweep's budget is spent: no retry and no quarantine record,
      // since the job never had a fair run.
      J.Attempts = S.Attempt;
      J.Detail += Last.Note;
      degradeJob(J, PM, M.Functions[Idx], Store, S.Root, Fp,
                 StopReason::Deadline);
      S.Phase = JobPhase::Done;
      return;
    }

    uint64_t DelayMs = 0;
    if (Opts.Retry.nextDelayMs(S.Attempt, S.Root.Crc, Sweep.remainingMs(),
                               DelayMs)) {
      // Backoff is a non-blocking timestamp: other jobs keep their
      // workers running while this one waits out its delay.
      if (DelayMs == 0) {
        S.Phase = JobPhase::Pending;
      } else {
        S.Phase = JobPhase::Waiting;
        S.ReadyAt = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(DelayMs);
      }
      return;
    }

    // Retries exhausted.
    J.Attempts = S.Attempt;
    if (Last.Class == AttemptClass::Crash) {
      Last.Q.Attempts = S.Attempt;
      std::string QErr;
      if (Store.saveQuarantine(S.Root, Fp, Last.Q, QErr)) {
        J.NewlyQuarantined = true;
        J.Detail += Last.Note + " after " + std::to_string(S.Attempt) +
                    " attempt(s); quarantined";
      } else {
        J.Detail += Last.Note + " after " + std::to_string(S.Attempt) +
                    " attempt(s); quarantine write failed: " + QErr;
      }
      degradeJob(J, PM, M.Functions[Idx], Store, S.Root, Fp,
                 StopReason::WorkerCrash);
    } else {
      J.Detail += Last.Note + "; retries exhausted after " +
                  std::to_string(S.Attempt) + " attempt(s)";
      degradeJob(J, PM, M.Functions[Idx], Store, S.Root, Fp, Last.Stop);
    }
    S.Phase = JobPhase::Done;
  };

  for (;;) {
    const auto Now = std::chrono::steady_clock::now();

    // Promote jobs whose backoff delay has elapsed.
    for (JobState &S : Jobs)
      if (S.Phase == JobPhase::Waiting && Now >= S.ReadyAt)
        S.Phase = JobPhase::Pending;

    // Fill free worker slots in function order. A job held back by its
    // root-group predecessor becomes startable in the same pass the
    // predecessor completes (the predecessor has the smaller index).
    for (size_t I = 0; I != NumJobs && Pool.live() < SweepJobs; ++I) {
      JobState &S = Jobs[I];
      if (S.Phase != JobPhase::Pending)
        continue;
      if (S.PrevSameRoot != SIZE_MAX &&
          Jobs[S.PrevSameRoot].Phase != JobPhase::Done)
        continue;
      if (S.Attempt == 0 && checkSkips(S)) {
        S.Phase = JobPhase::Done;
        continue;
      }
      // Read once: a second read could see the deadline pass in between
      // and hand the worker a zero (unarmed) kill timer.
      const uint64_t LeftMs = Sweep.remainingMs();
      if (LeftMs == 0) {
        S.J.Attempts = S.Attempt;
        S.J.Detail += "sweep deadline exhausted before the job could run";
        degradeJob(S.J, PM, M.Functions[I], Store, S.Root, Fp,
                   StopReason::Deadline);
        S.Phase = JobPhase::Done;
        continue;
      }
      ++S.Attempt;
      // Where the sweep's deadline comes before the per-worker timeout,
      // the worker gets the time left as its own --deadline-ms: it stops
      // at a level barrier, saves its checkpoint and exits 4, and the job
      // degrades to that partial DAG. The kill timer stays as the
      // backstop, DeadlineGraceMs later (never past the worker timeout).
      S.SweepTimer = HasDeadline && (Opts.WorkerTimeoutMs == 0 ||
                                     Opts.WorkerTimeoutMs > LeftMs);
      SubprocessSpec Spec;
      Spec.Argv =
          workerArgv(Opts, S.J.Func, S.Attempt, S.SweepTimer ? LeftMs : 0);
      Spec.TimeoutMs = Opts.WorkerTimeoutMs;
      if (S.SweepTimer && (Spec.TimeoutMs == 0 ||
                           Spec.TimeoutMs > LeftMs + DeadlineGraceMs))
        Spec.TimeoutMs = LeftMs + DeadlineGraceMs;
      Spec.MemoryLimitBytes = Opts.WorkerRlimitMb * 1024 * 1024;
      S.SpawnTimeoutMs = Spec.TimeoutMs;
      InFlight[Pool.spawn(Spec)] = I;
      S.Phase = JobPhase::Running;
    }

    bool AllDone = true;
    for (const JobState &S : Jobs)
      if (S.Phase != JobPhase::Done) {
        AllDone = false;
        break;
      }
    if (AllDone)
      break;

    // Wait for a completion, bounded by the nearest backoff expiry so a
    // freed retry gets its slot promptly.
    uint64_t WaitMs = 1000 * 60 * 60;
    for (const JobState &S : Jobs)
      if (S.Phase == JobPhase::Waiting) {
        const int64_t Left =
            std::chrono::duration_cast<std::chrono::milliseconds>(S.ReadyAt -
                                                                  Now)
                .count();
        WaitMs = std::min<uint64_t>(
            WaitMs, static_cast<uint64_t>(Left < 1 ? 1 : Left));
      }
    if (Pool.idle()) {
      // Nothing in flight — every unfinished job is waiting out a
      // backoff. Sleep until the nearest expiry.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          WaitMs == 1000 * 60 * 60 ? 1 : WaitMs));
      continue;
    }
    for (auto &Done : Pool.wait(WaitMs)) {
      const auto It = InFlight.find(Done.first);
      if (It == InFlight.end())
        continue;
      const size_t Idx = It->second;
      InFlight.erase(It);
      onResult(Idx, Done.second);
    }
  }

  Report.Jobs.reserve(NumJobs);
  for (JobState &S : Jobs)
    Report.Jobs.push_back(std::move(S.J));
  return Report;
}

} // namespace drive
} // namespace pose
