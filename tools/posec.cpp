//===- posec.cpp - POSE command-line driver -----------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Compile, optimize, run, and explore MC programs from the command line:
//
//   posec prog.mc [--opt=none|batch|prob | --sequence=LETTERS] [--run]
//   posec prog.mc --enumerate=FUNC | --dot=FUNC | --equiv | --equiv-check
//   posec prog.mc --supervise --store=DIR    sandboxed whole-module sweep
//   posec --merge-store=DST SRC...           union shard stores
//   posec --fsck --store=DIR [--repair]      audit a store offline
//
// Every flag, with its range, its rules and its help text, is one row of
// posecFlags() below; a command-line error prints the usage text rendered
// from those rows.
//
//===----------------------------------------------------------------------===//

#include "src/core/Compilers.h"
#include "src/core/DagExport.h"
#include "src/core/SpaceStats.h"
#include "src/drive/ExitCodes.h"
#include "src/drive/Supervisor.h"
#include "src/frontend/Compile.h"
#include "src/ir/Printer.h"
#include "src/machine/EntryExit.h"
#include "src/opt/PhaseGuard.h"
#include "src/opt/PhaseManager.h"
#include "src/sem/Equivalence.h"
#include "src/sim/Interpreter.h"
#include "src/store/ArtifactStore.h"
#include "src/store/StoreAdmin.h"
#include "src/store/StoreDriver.h"
#include "src/support/FaultFs.h"
#include "src/support/Flags.h"
#include "src/support/StopToken.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace pose;

namespace {

struct Options {
  std::string InputPath;
  std::string Opt = "batch"; // none | batch | prob | sequence
  std::string Sequence;
  std::string Entry = "main";
  std::string EnumerateFunc;
  std::string DotFunc;
  uint64_t Budget = 1'000'000;
  uint64_t Jobs = 1;         // --jobs=N: worker threads (>= 1).
  uint64_t DeadlineMs = 0;   // --deadline-ms=N: 0 = unlimited.
  uint64_t MaxMemoryMb = 0;  // --max-memory-mb=N: 0 = unlimited.
  FaultPlan Faults;          // --inject-fault=SPEC.
  std::string ModelPath;     // --model=FILE: load a trained model.
  std::string SaveModelPath; // --save-model=FILE: save after training.
  std::string StorePath;     // --store=DIR: artifact store directory.
  bool Run = false;
  bool EmitRtl = false;
  bool VerifyIr = false;
  bool ListPhases = false;   // --list-phases: print the phases, exit.
  bool Resume = false;       // --resume: continue from a stored checkpoint.
  bool AnalyzeStore = false; // --analyze-store: report on cached DAGs.
  bool ListQuarantine = false;  // --list-quarantine: print records, exit.
  bool ClearQuarantine = false; // --clear-quarantine: remove records, exit.

  // Supervised out-of-process enumeration (src/drive/Supervisor.h).
  bool Supervise = false;     // --supervise: sweep in worker processes.
  bool Worker = false;        // --worker: supervised child mode.
  uint64_t WorkerTimeoutMs = 60'000; // --worker-timeout-ms=N kill timer.
  uint64_t SweepJobs = 1;     // --sweep-jobs=N concurrent workers.
  uint64_t MaxRetries = 2;    // --max-retries=N per job.
  uint64_t WorkerRlimitMb = 0; // --worker-rlimit-mb=N RLIMIT_AS cap.
  std::string FaultFunc;      // --fault-func=NAME: restrict fault flags.
  uint64_t FaultAttempts = 0; // --fault-attempts=N: forward the fault
                              // flags to attempts 1..N only.
  std::string FaultSpecText;  // Raw --inject-fault text (forwarding).

  // Sharded sweeps and store administration.
  uint64_t ShardIndex = 0;    // --shard=K/N: this supervisor's shard (1-based).
  uint64_t ShardCount = 0;    // --shard=K/N: total shards (0 = unsharded).
  std::string MergeDst;       // --merge-store=DST destination directory.
  std::vector<std::string> MergeSrcs; // positional source stores.
  bool Fsck = false;          // --fsck: offline store verification.
  bool Repair = false;        // --repair: with --fsck, quarantine damage.

  // Injected store I/O faults (execution-only; never fingerprinted).
  std::string FaultIoSpecText;           // Raw --fault-io text (forwarding).
  std::vector<IoFaultSpec> FaultIo;      // Parsed --fault-io plan.

  // Semantic equivalence (src/sem/Equivalence.h).
  bool Equiv = false;      // --equiv: collapse report per function.
  bool EquivCheck = false; // --equiv-check: differential phase-bug gate.
  uint64_t VectorSeed = sem::kDefaultVectorSeed; // --vector-seed=N.
  uint64_t Vectors = sem::kDefaultVectorCount;   // --vectors=N.
  std::string Workload; // --workload=NAME: embedded benchmark as input.
};

const char *const kExitCodes =
    "\n"
    "exit codes (--worker / --supervise / store admin):\n"
    "  0 ok   1 error   2 usage   3 verifier failure   4 deadline\n"
    "  5 memory budget   6 cancelled   7 worker crashed (quarantined)\n"
    "  8 quarantined job(s) skipped   9 corrupt store (--fsck/--merge)\n"
    "  10 merge conflict   11 equivalence divergence (--equiv-check)\n"
    "  86 injected I/O crash (--fault-io)\n";

/// posec's command line, one row per flag. Rules that depend on a flag's
/// value or on the positional arguments are in checkOptions().
std::vector<Flag> posecFlags(Options &O) {
  std::vector<const char *> Workloads;
  for (const Workload &W : allWorkloads())
    Workloads.push_back(W.Name);
  return flagTable(
      choiceFlag("--opt", O.Opt, {"none", "batch", "prob"},
                 "optimization strategy (default batch)"),
      customFlag(
          "--sequence", "LETTERS", "phase letters only (see --list-phases)",
          [&O](const std::string &V) {
            for (const char C : V) {
              int P = 0;
              while (P != NumPhases && phaseCode(phaseByIndex(P)) != C)
                ++P;
              if (P == NumPhases)
                return false;
            }
            O.Sequence = V;
            O.Opt = "sequence";
            return true;
          },
          "apply an explicit phase sequence instead of an --opt strategy")
          .excludes({"--opt"}),
      switchFlag("--run", O.Run, "simulate --entry (default main)"),
      textFlag("--entry", "NAME", O.Entry, "entry function for --run"),
      switchFlag("--emit-rtl", O.EmitRtl,
                 "print the final RTL of every function"),
      textFlag("--enumerate", "FUNC", O.EnumerateFunc,
               "exhaustively enumerate FUNC's space"),
      textFlag("--dot", "FUNC", O.DotFunc,
               "print FUNC's phase-order DAG as Graphviz"),
      uintFlag("--budget", O.Budget, 1, UINT64_MAX,
               "enumeration budget (active sequences per level; default "
               "1000000)"),
      // Capped at u32: the thread-count plumbing is 32-bit, and a larger
      // value would otherwise truncate silently (e.g. 2^32+1 -> 1 job).
      uintFlag("--jobs", O.Jobs, 1, UINT32_MAX,
               "worker threads: enumeration expands each level in parallel "
               "(identical DAG for any N), batch compiles N functions at a "
               "time (default 1)"),
      uintFlag("--deadline-ms", O.DeadlineMs, 0, UINT64_MAX,
               "wall-clock limit for optimization and enumeration (0 = "
               "unlimited)"),
      // MiB values are capped where their byte count still fits in 64
      // bits: a larger one would wrap, 2^44 to 0 = unlimited.
      uintFlag("--max-memory-mb", O.MaxMemoryMb, 0, UINT64_MAX >> 20,
               "approximate memory budget for enumeration (0 = unlimited)"),
      switchFlag("--verify-ir", O.VerifyIr,
                 "verify the IR after every phase; failures roll back and "
                 "prune that edge"),
      customFlag(
          "--inject-fault", "SPEC",
          "<phase>:<nth>[:<kind>][,...] with a known phase letter, a "
          "positive count and kind segv, kill, hang or wrongcode (default: "
          "verifier)",
          [&O](const std::string &V) {
            if (!FaultPlan::parse(V, O.Faults))
              return false;
            O.FaultSpecText = V;
            return true;
          },
          "deterministic fault injection: fail the Nth application of a "
          "phase, e.g. c:3 or c:3,s:1; an optional third field picks the "
          "kind: verifier (default), segv, kill, hang or wrongcode"),
      textFlag("--model", "FILE", O.ModelPath,
               "load a trained interaction model for --opt=prob instead of "
               "self-training"),
      textFlag("--save-model", "FILE", O.SaveModelPath,
               "save the trained model after --opt=prob"),
      textFlag("--store", "DIR", O.StorePath,
               "persistent artifact store: finished DAGs are cached and "
               "reused; runs stopped by a deadline/memory "
               "budget/cancellation leave a resumable checkpoint"),
      switchFlag("--resume", O.Resume,
                 "continue an interrupted enumeration from its checkpoint "
                 "(the final DAG is identical to an uninterrupted run)")
          .needs({"--store"}),
      switchFlag("--analyze-store", O.AnalyzeStore,
                 "print per-function cache status and the interaction "
                 "tables mined from the cached complete DAGs")
          .needs({"--store"}),
      switchFlag("--supervise", O.Supervise,
                 "enumerate every function in a sandboxed worker process, "
                 "with bounded retries, persistent quarantine of crashing "
                 "jobs, and graceful degradation")
          .needs({"--store"}),
      switchFlag("--worker", O.Worker,
                 "supervised child mode: leaves the result or checkpoint "
                 "in the store and uses the exit codes below")
          .needs({"--enumerate"})
          .needs({"--store"})
          .excludes({"--supervise"}),
      uintFlag("--sweep-jobs", O.SweepJobs, 1, UINT64_MAX,
               "keep up to N worker processes in flight (default 1; "
               "report, artifacts, and quarantine records are identical "
               "for any N)")
          .needs({"--supervise"}),
      switchFlag("--list-quarantine", O.ListQuarantine,
                 "list this module's quarantined jobs and exit")
          .needs({"--store"})
          .excludes({"--supervise", "--worker"}),
      switchFlag("--clear-quarantine", O.ClearQuarantine,
                 "remove this module's quarantine records so the next sweep "
                 "retries those jobs")
          .needs({"--store"})
          .excludes({"--supervise", "--worker"}),
      // Zero would disable the kill timer entirely, so one hung worker
      // stalls the whole sweep forever; refuse it at parse time.
      uintFlag("--worker-timeout-ms", O.WorkerTimeoutMs, 1, UINT64_MAX,
               "SIGKILL a worker still running after N ms (default 60000)")
          .needs({"--supervise"}),
      uintFlag("--worker-rlimit-mb", O.WorkerRlimitMb, 0, UINT64_MAX >> 20,
               "RLIMIT_AS cap per worker process (0 = none)")
          .needs({"--supervise"}),
      uintFlag("--max-retries", O.MaxRetries, 0, UINT64_MAX,
               "retries per job after the first attempt (default 2)")
          .needs({"--supervise"}),
      textFlag("--fault-func", "NAME", O.FaultFunc,
               "forward the fault flags only to NAME's worker")
          .needs({"--supervise"}),
      uintFlag("--fault-attempts", O.FaultAttempts, 1, UINT64_MAX,
               "forward the fault flags only to the first N attempts of a "
               "job (deterministic crash-then-recover testing)")
          .needs({"--supervise"})
          .needs({"--inject-fault", "--fault-io"}),
      customFlag(
          "--shard", "K/N", "K/N with 1 <= K <= N",
          [&O](const std::string &V) {
            const size_t Slash = V.find('/');
            return Slash != std::string::npos &&
                   parseDecimal(std::string_view(V).substr(0, Slash),
                                O.ShardIndex) &&
                   parseDecimal(std::string_view(V).substr(Slash + 1),
                                O.ShardCount) &&
                   O.ShardIndex != 0 && O.ShardIndex <= O.ShardCount;
          },
          "run only the jobs whose canonical root hashes to shard K of N "
          "(1-based); N supervisors with disjoint K cover the module "
          "exactly once, and their merged stores are byte-identical to "
          "one unsharded sweep")
          .needs({"--supervise"}),
      textFlag("--merge-store", "DST", O.MergeDst,
               "union the stores given as positional arguments into DST; "
               "identical artifacts dedupe, byte-different ones for the "
               "same key are a conflict (exit 10)")
          .excludes({"--store", "--workload", "--fsck", "--supervise",
                     "--worker", "--analyze-store", "--list-quarantine",
                     "--clear-quarantine"}),
      switchFlag("--fsck", O.Fsck,
                 "re-verify every artifact frame (magic, version, "
                 "checksums, key, payload decode); exit 9 when damage or "
                 "orphaned temp files were found")
          .needs({"--store"})
          .excludes({"--workload", "--supervise", "--worker",
                     "--analyze-store", "--list-quarantine",
                     "--clear-quarantine"}),
      switchFlag("--repair", O.Repair,
                 "move damaged artifacts to <store>/lost+found/ and delete "
                 "orphaned temp files, so the next sweep recomputes exactly "
                 "what was lost")
          .needs({"--fsck"}),
      customFlag(
          "--fault-io", "SPEC",
          "<kind>:<nth>[,...] with kind one of shortwrite, enospc, eio, "
          "crash-before-rename or crash-after-rename and a positive index",
          [&O](const std::string &V) {
            if (!IoFaultSpec::parse(V, O.FaultIo))
              return false;
            O.FaultIoSpecText = V;
            return true;
          },
          "inject store I/O faults, e.g. enospc:2 or crash-before-rename:1 "
          "(kinds: shortwrite, enospc, eio, crash-before-rename, "
          "crash-after-rename; Nth op of the class). Execution-only: never "
          "part of the store fingerprint. Crash kinds _exit(86)")
          .needs({"--store", "--supervise"}),
      choiceFlag("--workload", O.Workload, std::move(Workloads),
                 "use an embedded benchmark program as the input instead of "
                 "a file"),
      switchFlag("--equiv", O.Equiv,
                 "run every DAG instance on seeded test vectors, bucket by "
                 "observed behavior, and print per-function collapse "
                 "statistics (semantic classes, cost spreads, optimal "
                 "leaves); enumerates every function unless --enumerate "
                 "restricts it")
          .excludes({"--equiv-check", "--dot", "--run", "--analyze-store"}),
      // The gate re-runs instances in-process; under supervision it would
      // race the workers it is meant to audit. Run it over the store after
      // the sweep instead (--equiv workers persist the records it needs).
      switchFlag("--equiv-check", O.EquivCheck,
                 "differential phase-bug gate: exit 11 when any two "
                 "instances of one canonical function diverge in behavior, "
                 "naming the sequence pair and first diverging vector; "
                 "standalone: use --equiv during a sweep, then run this "
                 "over the store")
          .excludes({"--worker", "--supervise", "--dot", "--run",
                     "--analyze-store"}),
      uintFlag("--vector-seed", O.VectorSeed, 0, UINT64_MAX,
               "test-vector seed (default 2026; part of the artifact key)")
          .needs({"--equiv", "--equiv-check"}),
      // Capped at u32: the vector count is stored 32-bit in the equiv
      // fingerprint; a larger value would truncate silently (2^32+1 -> 1
      // vector) instead of failing loudly here.
      uintFlag("--vectors", O.Vectors, 1, UINT32_MAX,
               "test vectors per signature (default 24)")
          .needs({"--equiv", "--equiv-check"}),
      switchFlag("--list-phases", O.ListPhases,
                 "print the 15 phases and exit (no input needed)"));
}

/// The rules the flag table cannot state, because they depend on a flag's
/// value or on the positional arguments \p Args. Fills in the input file
/// or the merge sources.
bool checkOptions(Options &O, std::vector<std::string> &Args,
                  std::string &Error) {
  auto Fail = [&Error](const char *Why) {
    Error = Why;
    return false;
  };
  if (!O.MergeDst.empty()) {
    // Every positional argument of a merge is a source store, including
    // those given before the flag.
    O.MergeSrcs = std::move(Args);
    if (O.MergeSrcs.empty())
      return Fail("--merge-store needs at least one source store");
  } else if (O.Fsck) {
    if (!Args.empty())
      return Fail("--fsck verifies the store itself and takes no input file");
  } else if (Args.size() > 1) {
    return Fail("multiple input files");
  } else if (Args.size() == 1) {
    if (!O.Workload.empty())
      return Fail("give either an input file or --workload=NAME, not both");
    O.InputPath = Args.front();
  } else if (O.Workload.empty() && !O.ListPhases) {
    return Fail("no input file (give one, or --workload=NAME)");
  }
  // Crash-class faults take the process down; an unsupervised process
  // would just lose the run, which is the very failure mode the
  // supervisor exists to absorb.
  if (O.Faults.hasCrashFault() && !O.Worker && !O.Supervise)
    return Fail("crash-class faults (segv/kill/hang) require --worker or "
                "--supervise");
  // Verifier faults shape the DAG and are part of the store fingerprint;
  // the supervisor only knows how to forward execution-only crash plans.
  if (O.Supervise && !O.Faults.empty() && !O.Faults.allCrashFaults())
    return Fail("--supervise only supports all-crash-class --inject-fault "
                "plans (segv/kill/hang)");
  return true;
}

/// Prints every guarded failure of \p R to stderr (a pruned edge is worth
/// reporting, not worth a non-zero exit: the surviving space is sound).
void reportDiagnostics(const EnumerationResult &R) {
  for (const PhaseDiagnostic &D : R.Diagnostics)
    std::fprintf(stderr,
                 "warning: phase %c (%s) rolled back on application %llu "
                 "of %s: %s%s\n",
                 phaseCode(D.Phase), phaseName(D.Phase),
                 static_cast<unsigned long long>(D.Application),
                 D.Func.c_str(), D.Message.c_str(),
                 D.Injected ? " [injected]" : "");
}

/// Enumeration knobs shared by --enumerate/--dot, --opt=prob training and
/// --analyze-store (the store fingerprint is computed from this, so all
/// store-facing paths must build it identically).
EnumeratorConfig makeEnumConfig(const Options &O) {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = O.Budget;
  Cfg.Jobs = static_cast<unsigned>(O.Jobs);
  Cfg.DeadlineMs = O.DeadlineMs;
  Cfg.MaxMemoryBytes = O.MaxMemoryMb * 1024 * 1024;
  Cfg.VerifyIr = O.VerifyIr;
  if (!O.Faults.empty())
    Cfg.Faults = &O.Faults;
  return Cfg;
}

/// Enumerates \p F directly, or through the artifact store when --store
/// was given. \p Failed is set (and the partial result returned) only on
/// a store I/O error.
EnumerationResult runEnumeration(const Options &O, const PhaseManager &PM,
                                 const EnumeratorConfig &Cfg,
                                 const Function &F, bool &Failed) {
  if (O.StorePath.empty()) {
    Enumerator E(PM, Cfg);
    return E.enumerate(F);
  }
  store::DriveResult D =
      store::driveEnumeration(PM, Cfg, F, O.StorePath, O.Resume);
  for (const std::string &Note : D.RejectionNotes)
    std::fprintf(stderr, "warning: %s: rejected stored artifact: %s\n",
                 F.Name.c_str(), Note.c_str());
  if (!D.Ok) {
    std::fprintf(stderr, "error: %s: %s\n", F.Name.c_str(), D.Error.c_str());
    Failed = true;
    return std::move(D.Result);
  }
  if (D.Source == store::DriveSource::Cached)
    std::fprintf(stderr, "%s: reusing cached DAG from %s\n", F.Name.c_str(),
                 O.StorePath.c_str());
  else if (D.Source == store::DriveSource::Resumed)
    std::fprintf(stderr, "%s: resumed from checkpoint in %s\n",
                 F.Name.c_str(), O.StorePath.c_str());
  if (D.CheckpointSaved)
    std::fprintf(stderr,
                 "%s: stopped (%s); checkpoint saved, rerun with --resume "
                 "to continue\n",
                 F.Name.c_str(), stopReasonName(D.Result.Stop));
  return std::move(D.Result);
}

/// The vector set and fault plan --equiv and --equiv-check run under.
sem::EquivInputs equivInputs(const Options &O) {
  sem::EquivInputs In;
  In.Seed = O.VectorSeed;
  In.VectorCount = static_cast<uint32_t>(O.Vectors);
  In.Faults = O.Faults.empty() ? nullptr : &O.Faults;
  return In;
}

/// Loads the equivalence record of \p F from the store, or computes it
/// (and persists it when a store is in use). The artifact is keyed by the
/// canonical root triple and equivFingerprint(config, seed, count); a hit
/// whose node count disagrees with \p R is stale and recomputed.
sem::EquivRecord loadOrComputeEquiv(const Options &O, const PhaseManager &PM,
                                    const Module &M, Function &F,
                                    const EnumeratorConfig &Cfg,
                                    const EnumerationResult &R,
                                    const sem::EquivInputs &In) {
  if (O.StorePath.empty())
    return sem::computeEquivalence(M, F, PM, R, In);
  store::ArtifactStore Store(O.StorePath);
  const HashTriple Root = canonicalize(F, false, Cfg.RemapRegisters).Hash;
  const uint64_t Fp = store::equivFingerprint(store::configFingerprint(Cfg),
                                              O.VectorSeed, O.Vectors);
  sem::EquivRecord E;
  std::string Error;
  const store::LoadStatus S = Store.loadEquivalence(Root, Fp, E, Error);
  if (S == store::LoadStatus::Hit && E.NodeBehavior.size() == R.Nodes.size())
    return E;
  if (S == store::LoadStatus::Rejected)
    std::fprintf(stderr,
                 "warning: %s: rejected stored equivalence record: %s\n",
                 F.Name.c_str(), Error.c_str());
  E = sem::computeEquivalence(M, F, PM, R, In);
  if (!Store.saveEquivalence(Root, Fp, E, Error))
    std::fprintf(stderr,
                 "warning: %s: cannot save equivalence record: %s\n",
                 F.Name.c_str(), Error.c_str());
  return E;
}

/// Renders one --equiv-check divergence to stdout.
void printDivergence(const std::string &Func,
                     const sem::DivergenceReport &D) {
  std::printf("%s: DIVERGENCE between sequence \"%s\" (node %u) and "
              "sequence \"%s\" (node %u)\n",
              Func.c_str(), D.SequenceA.c_str(), D.NodeA,
              D.SequenceB.c_str(), D.NodeB);
  if (D.VectorIndex < 0) {
    // The digests disagreed but no single vector re-diverged: behavior
    // depends on something outside the recorded plan (should not happen;
    // surfaced rather than hidden).
    std::printf("  (no single diverging vector reproduced; record and "
                "replay disagree)\n");
    return;
  }
  std::string Args;
  for (size_t I = 0; I != D.Vector.size(); ++I) {
    if (I)
      Args += ' ';
    Args += std::to_string(D.Vector[I]);
  }
  std::printf("  vector %d: args [%s]\n", D.VectorIndex, Args.c_str());
  std::printf("    sequence \"%s\": %s\n", D.SequenceA.c_str(),
              D.BehaviorA.c_str());
  std::printf("    sequence \"%s\": %s\n", D.SequenceB.c_str(),
              D.BehaviorB.c_str());
}

/// --equiv / --equiv-check: enumerate every function (or the one named by
/// --enumerate), fingerprint every DAG instance's behavior on the seeded
/// vector set, and either report the syntactic-to-semantic collapse or
/// gate on divergence. The report is a pure function of the DAG and the
/// vector-set identity, so it is byte-identical across --jobs, resumes,
/// and cache hits.
int runEquiv(const Options &O, Module &M) {
  PhaseManager PM;
  const EnumeratorConfig Cfg = makeEnumConfig(O);
  const sem::EquivInputs In = equivInputs(O);
  bool Diverged = false;
  size_t Matched = 0;
  for (Function &F : M.Functions) {
    if (!O.EnumerateFunc.empty() && F.Name != O.EnumerateFunc)
      continue;
    ++Matched;
    bool Failed = false;
    const EnumerationResult R = runEnumeration(O, PM, Cfg, F, Failed);
    if (Failed)
      return 1;
    reportDiagnostics(R);
    const sem::EquivRecord E = loadOrComputeEquiv(O, PM, M, F, Cfg, R, In);

    if (O.EquivCheck) {
      const sem::DivergenceReport D =
          sem::findDivergence(M, F, PM, R, E, In);
      if (D.Diverged) {
        printDivergence(F.Name, D);
        Diverged = true;
      } else
        std::printf("%-20s %llu instance(s) agree on %llu vector(s)\n",
                    F.Name.c_str(),
                    static_cast<unsigned long long>(E.NodeBehavior.size()),
                    static_cast<unsigned long long>(E.UsedVectors.size()));
      continue;
    }

    const sem::CollapseReport C = sem::collapseClasses(R, E);
    std::printf("%s: %llu instances -> %llu semantic classes "
                "(%.1f%% collapse) on %llu vector(s)%s\n",
                F.Name.c_str(),
                static_cast<unsigned long long>(C.Instances),
                static_cast<unsigned long long>(C.Classes.size()),
                C.collapsePercent(),
                static_cast<unsigned long long>(C.UsedVectors),
                C.Certified ? "" : " [partial space: leaves are best-seen]");
    for (size_t I = 0; I != C.Classes.size(); ++I) {
      const sem::EquivClass &Cl = C.Classes[I];
      std::printf("  class %zu: %zu node(s), %s, dynamic %llu..%llu "
                  "(spread %.1f%%)",
                  I, Cl.Nodes.size(), Cl.AllOk ? "ok" : "traps",
                  static_cast<unsigned long long>(Cl.MinDynamic),
                  static_cast<unsigned long long>(Cl.MaxDynamic),
                  Cl.spreadPercent());
      if (Cl.BestLeaf != 0xFFFFFFFFu)
        std::printf(", %s leaf: node %u",
                    C.Certified ? "optimal" : "best-seen", Cl.BestLeaf);
      if (Cl.MaxDynamic > Cl.MinDynamic)
        std::printf("  <- opportunity");
      std::printf("\n");
    }
    std::printf("  opportunities: %llu class(es) with a cost spread\n",
                static_cast<unsigned long long>(C.opportunityClasses()));
  }
  if (Matched == 0) {
    std::fprintf(stderr, "no function named '%s'\n",
                 O.EnumerateFunc.c_str());
    return 1;
  }
  return Diverged ? drive::ExitCode::EquivDivergence : drive::ExitCode::Ok;
}

int enumerateFunction(const Options &O, Module &M) {
  const std::string &Name =
      O.EnumerateFunc.empty() ? O.DotFunc : O.EnumerateFunc;
  int Id = M.findGlobal(Name);
  Function *F = Id >= 0 ? M.functionFor(Id) : nullptr;
  if (!F) {
    std::fprintf(stderr, "no function named '%s'\n", Name.c_str());
    return 1;
  }
  PhaseManager PM;
  EnumeratorConfig Cfg = makeEnumConfig(O);
  bool Failed = false;
  EnumerationResult R = runEnumeration(O, PM, Cfg, *F, Failed);
  if (Failed)
    return 1;
  reportDiagnostics(R);

  if (!O.DotFunc.empty()) {
    std::printf("%s", dagToDot(R).c_str());
    return 0;
  }

  SpaceStats S = computeSpaceStats(*F, R);
  char StopText[64];
  std::snprintf(StopText, sizeof(StopText), "partial space (stopped: %s)",
                stopReasonName(R.Stop));
  std::printf("%s: %s\n", F->Name.c_str(),
              R.complete() ? "exhaustively enumerated" : StopText);
  std::printf("  unoptimized: %u insts, %u blocks, %u branches, %u loops\n",
              S.Insts, S.Blocks, S.Branches, S.Loops);
  std::printf("  distinct instances: %llu  attempted phases: %llu\n",
              static_cast<unsigned long long>(S.FnInstances),
              static_cast<unsigned long long>(S.AttemptedPhases));
  std::printf("  max active sequence length: %u  control flows: %llu\n",
              S.MaxActiveLen,
              static_cast<unsigned long long>(S.DistinctControlFlows));
  std::printf("  leaves: %llu  code size best/worst: %u/%u (%.1f%%)\n",
              static_cast<unsigned long long>(S.LeafInstances),
              S.LeafCodeSizeMin, S.LeafCodeSizeMax,
              S.codeSizeDiffPercent());
  return 0;
}

/// --worker: one supervised enumeration job, through the store (--worker
/// requires --store). Prints nothing on stdout and exits with the
/// documented code for the stop reason; the supervisor classifies the
/// exit code and reads the stored result or checkpoint
/// (src/drive/Supervisor.h).
int runWorker(const Options &O, Module &M) {
  int Id = M.findGlobal(O.EnumerateFunc);
  Function *F = Id >= 0 ? M.functionFor(Id) : nullptr;
  if (!F) {
    std::fprintf(stderr, "no function named '%s'\n",
                 O.EnumerateFunc.c_str());
    return drive::ExitCode::Error;
  }
  PhaseManager PM;
  const EnumeratorConfig Cfg = makeEnumConfig(O);
  bool Failed = false;
  const EnumerationResult R = runEnumeration(O, PM, Cfg, *F, Failed);
  if (Failed)
    return drive::ExitCode::Error;
  reportDiagnostics(R);
  // --equiv workers persist the equivalence record alongside the result
  // (driveEnumeration removed any stale record when it saved a fresh
  // DAG, so compute-after-save is the correct order). The supervisor
  // only counts this job Cached next sweep when the record is present.
  if (O.Equiv)
    (void)loadOrComputeEquiv(O, PM, M, *F, Cfg, R, equivInputs(O));
  return drive::exitCodeForStop(R.Stop);
}

/// Path of this very executable (the supervisor re-invokes itself as the
/// worker); falls back to argv[0] when /proc is unavailable.
std::string selfExePath(const char *Argv0) {
  char Buf[4096];
  const ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N > 0) {
    Buf[N] = '\0';
    return Buf;
  }
  return Argv0;
}

/// --supervise: sweep every function of the module through sandboxed
/// worker processes and print one report line per job.
int runSupervise(const Options &O, const Module &M, const char *Argv0) {
  PhaseManager PM;
  drive::SupervisorOptions SO;
  SO.PosecPath = selfExePath(Argv0);
  SO.InputPath = O.InputPath;
  SO.Workload = O.Workload;
  SO.StoreDir = O.StorePath;
  SO.Budget = O.Budget;
  SO.Jobs = O.Jobs;
  SO.MaxMemoryMb = O.MaxMemoryMb;
  SO.VerifyIr = O.VerifyIr;
  SO.Equiv = O.Equiv;
  SO.VectorSeed = O.VectorSeed;
  SO.Vectors = O.Vectors;
  SO.FaultSpec = O.FaultSpecText;
  SO.FaultIoSpec = O.FaultIoSpecText;
  SO.FaultFunc = O.FaultFunc;
  SO.FaultAttempts = O.FaultAttempts;
  SO.ShardIndex = O.ShardIndex;
  SO.ShardCount = O.ShardCount;
  SO.WorkerTimeoutMs = O.WorkerTimeoutMs;
  SO.WorkerRlimitMb = O.WorkerRlimitMb;
  SO.SweepDeadlineMs = O.DeadlineMs;
  SO.SweepJobs = O.SweepJobs;
  SO.Retry.MaxRetries = static_cast<unsigned>(O.MaxRetries);
  drive::SweepReport R = drive::superviseModule(PM, M, SO);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return drive::ExitCode::Error;
  }
  for (const std::string &P : R.ReclaimedTmp)
    std::fprintf(stderr,
                 "note: reclaimed stale temp file %s (left by a crashed "
                 "writer)\n",
                 P.c_str());
  for (const drive::JobOutcome &J : R.Jobs)
    std::printf("%-20s %s: %s\n", J.Func.c_str(),
                drive::jobStatusName(J.Status), J.Detail.c_str());
  return R.exitCode();
}

/// --fsck [--repair]: offline verification of a store directory. Prints
/// one line per problem (and per foreign file), a summary, and exits 0
/// for a clean (or cleanly repaired) store, 9 otherwise.
int runFsck(const Options &O) {
  const store::FsckReport R = store::fsckStore(O.StorePath, O.Repair);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return drive::ExitCode::Error;
  }
  for (const store::FsckEntry &E : R.Entries) {
    std::printf("%-10s %s: %s\n", store::fsckStateName(E.State),
                E.Name.c_str(), E.Detail.c_str());
    if (!E.RepairedTo.empty()) {
      const std::string What = E.RepairedTo == "(removed)"
                                   ? std::string("removed")
                                   : "moved to " + E.RepairedTo;
      std::printf("           %s\n", What.c_str());
    }
  }
  std::printf("scanned %zu: %zu intact, %zu corrupt, %zu truncated, "
              "%zu orphaned tmp, %zu foreign\n",
              R.Scanned, R.Intact, R.Corrupt, R.Truncated, R.Orphans,
              R.Foreign);
  if (R.clean())
    return drive::ExitCode::Ok;
  if (O.Repair && R.repairedClean()) {
    std::printf("store repaired: %zu problem(s) moved aside or removed; "
                "re-sweep to regenerate the lost artifacts\n",
                R.Repaired);
    return drive::ExitCode::Ok;
  }
  return drive::ExitCode::StoreCorrupt;
}

/// --merge-store DST SRC...: union shard stores into one. Exit 0 on
/// success, 10 on a same-key byte-difference (naming the key), 9 on a
/// corrupt source artifact, 2 when the destination is also a source.
int runMerge(const Options &O) {
  const store::MergeReport R = store::mergeStores(O.MergeDst, O.MergeSrcs);
  switch (R.Status) {
  case store::MergeStatus::Ok:
    std::printf("merged %zu store(s) into %s: %zu copied, %zu identical "
                "(deduped), %zu stale tmp skipped\n",
                O.MergeSrcs.size(), O.MergeDst.c_str(), R.Copied, R.Deduped,
                R.SkippedTmp);
    return drive::ExitCode::Ok;
  case store::MergeStatus::Conflict:
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return drive::ExitCode::MergeConflict;
  case store::MergeStatus::CorruptSource:
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return drive::ExitCode::StoreCorrupt;
  case store::MergeStatus::SelfMerge:
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return drive::ExitCode::Usage;
  case store::MergeStatus::IoError:
    break;
  }
  std::fprintf(stderr, "error: %s\n", R.Error.c_str());
  return drive::ExitCode::Error;
}

/// --list-quarantine / --clear-quarantine: the operator surface over
/// persisted quarantine records. Lists (and with --clear-quarantine
/// removes) the records of this module's functions under the current
/// configuration fingerprint, so a fixed job can be retried without
/// hand-deleting store files.
int quarantineOps(const Options &O, Module &M) {
  store::ArtifactStore Store(O.StorePath);
  EnumeratorConfig Cfg = makeEnumConfig(O);
  const uint64_t Fp = store::configFingerprint(Cfg);
  size_t Found = 0;
  for (Function &F : M.Functions) {
    const HashTriple Root = canonicalize(F, false, Cfg.RemapRegisters).Hash;
    store::QuarantineRecord Q;
    std::string Error;
    const store::LoadStatus S = Store.loadQuarantine(Root, Fp, Q, Error);
    if (S == store::LoadStatus::Miss)
      continue;
    ++Found;
    if (S == store::LoadStatus::Rejected)
      std::printf("%-20s rejected quarantine record: %s\n", F.Name.c_str(),
                  Error.c_str());
    else
      std::printf("%-20s quarantined after %u attempt(s) [%s]: %s\n",
                  F.Name.c_str(), Q.Attempts,
                  store::workerFailureName(Q.Failure), Q.Message.c_str());
    if (O.ClearQuarantine) {
      Store.removeQuarantine(Root);
      std::printf("%-20s cleared\n", F.Name.c_str());
    }
  }
  if (Found == 0)
    std::printf("no quarantined jobs\n");
  return 0;
}

/// --analyze-store: report what the store holds for this module's
/// functions and mine the interaction tables from the complete cached
/// DAGs, without running any enumeration.
int analyzeStore(const Options &O, Module &M) {
  store::ArtifactStore Store(O.StorePath);
  EnumeratorConfig Cfg = makeEnumConfig(O);
  const uint64_t Fp = store::configFingerprint(Cfg);
  InteractionAnalysis IA;
  size_t Used = 0;
  for (Function &F : M.Functions) {
    HashTriple Root = canonicalize(F, false, Cfg.RemapRegisters).Hash;
    EnumerationResult R;
    std::string Error;
    store::LoadStatus S = Store.loadResult(Root, Fp, R, Error);
    if (S == store::LoadStatus::Miss) {
      std::printf("%-20s not cached\n", F.Name.c_str());
      continue;
    }
    if (S == store::LoadStatus::Rejected) {
      std::printf("%-20s rejected: %s\n", F.Name.c_str(), Error.c_str());
      continue;
    }
    std::printf("%-20s cached: %llu instances (%s)\n", F.Name.c_str(),
                static_cast<unsigned long long>(R.Nodes.size()),
                R.complete() ? "complete"
                             : stopReasonName(R.Stop));
    if (R.complete()) {
      IA.addFunction(R);
      ++Used;
    }
  }
  if (Used == 0) {
    std::printf("no complete cached DAGs to analyze; enumerate with "
                "--store=%s first\n",
                O.StorePath.c_str());
    return 1;
  }
  std::printf("\ninteraction tables from %llu cached function(s)\n",
              static_cast<unsigned long long>(Used));
  std::printf("\nEnabling interactions:\n%s",
              IA.renderTable(InteractionAnalysis::TableKind::Enabling)
                  .c_str());
  std::printf("\nDisabling interactions:\n%s",
              IA.renderTable(InteractionAnalysis::TableKind::Disabling)
                  .c_str());
  std::printf("\nPhase independence:\n%s",
              IA.renderTable(InteractionAnalysis::TableKind::Independence)
                  .c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  const std::vector<Flag> Flags = posecFlags(O);
  std::vector<std::string> Args;
  std::string Error;
  if (!parseFlags(Flags, Argc, Argv, Args, nullptr, Error) ||
      !checkOptions(O, Args, Error)) {
    std::fprintf(stderr, "%s\n%s", Error.c_str(),
                 renderUsage("posec <file.mc> [options]", Flags, kExitCodes)
                     .c_str());
    return drive::ExitCode::Usage;
  }
  if (O.ListPhases) {
    for (int P = 0; P != NumPhases; ++P)
      std::printf(" %c  %s\n", phaseCode(phaseByIndex(P)),
                  phaseName(phaseByIndex(P)));
    return 0;
  }

  // Install the store I/O fault injector before any store is touched.
  // The supervisor process itself never injects — it forwards the spec
  // to its workers (the processes whose writes the faults target).
  if (!O.FaultIo.empty() && !O.Supervise) {
    static FaultFs Injector(O.FaultIo, FaultFs::CrashMode::Exit);
    setProcessStoreIo(&Injector);
  }

  // Store administration modes run without an input file.
  if (!O.MergeDst.empty())
    return runMerge(O);
  if (O.Fsck)
    return runFsck(O);

  std::string Source;
  if (!O.Workload.empty()) {
    // Embedded benchmark (a --workload choice row).
    Source = findWorkload(O.Workload)->Source;
  } else {
    std::ifstream In(O.InputPath);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", O.InputPath.c_str());
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }
  CompileResult CR = compileMC(Source);
  if (!CR.ok()) {
    std::fprintf(stderr, "%s", CR.diagText().c_str());
    return 1;
  }
  Module &M = CR.M;

  if (O.Worker)
    return runWorker(O, M);
  if (O.Supervise)
    return runSupervise(O, M, Argv[0]);
  if (O.ListQuarantine || O.ClearQuarantine)
    return quarantineOps(O, M);
  if (O.AnalyzeStore)
    return analyzeStore(O, M);
  if (O.Equiv || O.EquivCheck)
    return runEquiv(O, M);
  if (!O.EnumerateFunc.empty() || !O.DotFunc.empty())
    return enumerateFunction(O, M);

  PhaseManager PM;
  // One governor for the whole compilation: the deadline covers all
  // functions together, so a stuck function cannot starve the rest of
  // the run past the requested wall-clock limit.
  ResourceGovernor Gov;
  Gov.setDeadline(O.DeadlineMs);
  const ResourceGovernor *GovPtr = O.DeadlineMs != 0 ? &Gov : nullptr;
  auto ReportStats = [](const Function &F, const CompileStats &S) {
    std::fprintf(stderr, "%-20s %3llu attempted, %2llu active (%s)%s%s\n",
                 F.Name.c_str(),
                 static_cast<unsigned long long>(S.Attempted),
                 static_cast<unsigned long long>(S.Active),
                 S.ActiveSequence.c_str(),
                 S.Stop == StopReason::Complete ? "" : " stopped: ",
                 S.Stop == StopReason::Complete ? ""
                                                : stopReasonName(S.Stop));
  };
  if (O.Opt == "batch") {
    std::vector<CompileStats> Stats = batchCompileModule(
        PM, M, static_cast<unsigned>(O.Jobs), GovPtr);
    for (size_t I = 0; I != M.Functions.size(); ++I) {
      ReportStats(M.Functions[I], Stats[I]);
      fixEntryExit(M.Functions[I]);
    }
  } else if (O.Opt == "prob") {
    InteractionAnalysis IA;
    if (!O.ModelPath.empty()) {
      std::ifstream ModelIn(O.ModelPath);
      std::stringstream ModelBuf;
      ModelBuf << ModelIn.rdbuf();
      if (!ModelIn || !IA.deserialize(ModelBuf.str())) {
        std::fprintf(stderr, "cannot load model %s\n",
                     O.ModelPath.c_str());
        return 1;
      }
    } else {
      // Self-trained: enumerate this very module's functions first
      // (through the artifact store when --store was given, so repeated
      // prob compilations reuse the expensive DAGs).
      EnumeratorConfig Cfg = makeEnumConfig(O);
      for (Function &F : M.Functions) {
        bool Failed = false;
        EnumerationResult R = runEnumeration(O, PM, Cfg, F, Failed);
        if (Failed)
          return 1;
        reportDiagnostics(R);
        if (R.complete())
          IA.addFunction(R);
      }
    }
    if (!O.SaveModelPath.empty()) {
      std::ofstream ModelOut(O.SaveModelPath);
      ModelOut << IA.serialize();
      if (!ModelOut) {
        std::fprintf(stderr, "cannot write model %s\n",
                     O.SaveModelPath.c_str());
        return 1;
      }
    }
    ProbabilisticCompiler PC(PM, IA);
    for (Function &F : M.Functions) {
      CompileStats S = PC.compile(F, GovPtr);
      ReportStats(F, S);
      fixEntryExit(F);
    }
  } else if (O.Opt == "sequence") {
    for (Function &F : M.Functions) {
      std::string Active = PM.applySequence(F, O.Sequence);
      std::fprintf(stderr, "%-20s active: %s\n", F.Name.c_str(),
                   Active.c_str());
      fixEntryExit(F);
    }
  }

  if (O.EmitRtl || (!O.Run && O.EnumerateFunc.empty()))
    std::printf("%s", printModule(M).c_str());

  if (O.Run) {
    Interpreter Sim(M);
    RunResult R = Sim.run(O.Entry, {});
    if (!R.Ok) {
      std::fprintf(stderr, "simulation failed: %s\n", R.Error.c_str());
      return 1;
    }
    for (int32_t V : R.Output)
      std::printf("%d\n", V);
    std::fprintf(stderr, "return value: %d\ndynamic instructions: %llu\n",
                 R.ReturnValue,
                 static_cast<unsigned long long>(R.DynamicInsts));
  }
  return 0;
}
