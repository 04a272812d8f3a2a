//===- Enumerator.cpp - Exhaustive phase order space enumeration --------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"

#include "src/core/InstanceTable.h"
#include "src/ir/Function.h"
#include "src/machine/RegisterAssign.h"
#include "src/opt/PhaseManager.h"
#include "src/support/Fnv.h"
#include "src/support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace pose;

namespace {

/// Frontier memory accounting. Instances use copy-on-write storage, so
/// blocks (and slot vectors) shared across frontier entries must be
/// charged once — but the key has to be *content*, never an address:
/// pointer sharing does not survive a checkpoint resume, and the
/// accounting is part of the byte-identical determinism contract across
/// job counts and interrupted runs. Content hashing is deterministic
/// by construction; a (vanishingly rare) 64-bit collision merely
/// undercounts the approximate charge and does so identically everywhere.
uint64_t blockContentKey(const BasicBlock &B) {
  Fnv1a H;
  H.word(static_cast<uint32_t>(B.Label));
  H.word(B.Insts.size());
  auto Mix = [&H](const Operand &O) {
    H.word((static_cast<uint64_t>(O.Kind) << 32) |
           static_cast<uint32_t>(O.Value));
  };
  for (const Rtl &I : B.Insts) {
    H.word((static_cast<uint64_t>(I.Opcode) << 8) |
           static_cast<uint64_t>(I.CC));
    Mix(I.Dst);
    for (const Operand &S : I.Src)
      Mix(S);
    H.word(I.Args.size());
    for (const Operand &A : I.Args)
      Mix(A);
  }
  return H.value();
}

uint64_t slotContentKey(const SlotList &Slots) {
  Fnv1a H(0x84222325CBF29CE4ull);
  H.word(Slots.size());
  for (const StackSlot &S : Slots) {
    H.bytes(S.Name);
    H.word(static_cast<uint32_t>(S.SizeWords));
    H.word((S.IsArray ? 2u : 0u) | (S.IsParam ? 1u : 0u));
  }
  return H.value();
}

/// Distinct-content sets for one frontier's worth of accounting; reset at
/// every level barrier (the previous frontier's charge is released
/// wholesale there).
struct FootprintDedup {
  std::unordered_set<uint64_t> Blocks;
  std::unordered_set<uint64_t> Slots;
};

/// Approximate heap footprint of one frontier entry, charging each
/// distinct block/slot-vector payload once per frontier. Deterministic by
/// construction (derived from instruction/slot content, never from the
/// allocator).
uint64_t entryFootprint(const FrontierEntry &E, FootprintDedup &Seen) {
  uint64_t Bytes = sizeof(FrontierEntry) + sizeof(Function) +
                   E.Instance.Blocks.size() * sizeof(void *);
  if (E.Instance.Slots.size() &&
      Seen.Slots.insert(slotContentKey(E.Instance.Slots)).second)
    Bytes += E.Instance.Slots.size() * sizeof(StackSlot);
  for (const BasicBlock &B : E.Instance.Blocks)
    if (Seen.Blocks.insert(blockContentKey(B)).second)
      Bytes += sizeof(BasicBlock) + B.Insts.size() * sizeof(Rtl);
  return Bytes;
}

/// "Len": the largest active sequence length is the longest path in the
/// DAG (cross edges can make it exceed the BFS depth). Valid only when
/// the space is acyclic.
uint32_t longestPathLength(const EnumerationResult &R) {
  const size_t N = R.Nodes.size();
  std::vector<uint32_t> InDegree(N, 0), Dist(N, 0);
  for (const DagNode &Nd : R.Nodes)
    for (const DagEdge &E : Nd.Edges)
      ++InDegree[E.To];
  std::vector<uint32_t> Ready;
  for (size_t I = 0; I != N; ++I)
    if (InDegree[I] == 0)
      Ready.push_back(static_cast<uint32_t>(I));
  uint32_t Longest = 0;
  while (!Ready.empty()) {
    uint32_t Id = Ready.back();
    Ready.pop_back();
    for (const DagEdge &E : R.Nodes[Id].Edges) {
      if (Dist[E.To] < Dist[Id] + 1) {
        Dist[E.To] = Dist[Id] + 1;
        Longest = std::max(Longest, Dist[E.To]);
      }
      if (--InDegree[E.To] == 0)
        Ready.push_back(E.To);
    }
  }
  return Longest;
}

//===----------------------------------------------------------------------===//
// The level-synchronous engine
//===----------------------------------------------------------------------===//
//
// Within one BFS level every frontier entry expands independently: the
// phases it attempts depend only on its own state and on masks resolved
// *before* the level started (a node enters the frontier exactly once,
// and its expander is the only one to touch its masks). The only shared
// mutable structures are the instance table and the DAG itself — so
// workers do the expensive part (phase application + canonicalization)
// into private buffers, consulting a sharded concurrent table for
// read-only hits against committed nodes, and one thread at a time
// commits the buffered discoveries in exact frontier order, each entry
// as soon as every earlier one is committed. Node ids, edge order,
// statistics and memory charges are all assigned by the commit in that
// order, so the result is byte-identical for any thread count. Jobs == 1
// is a pool with no workers: every entry expands inline on the calling
// thread and commits right after its expansion.
//
// Every phase application happens in an entry's expansion; the commit
// only merges the buffered results and applies no phase. Two details
// need care:
//  * FaultPlan coordinates ("fail the Nth application of P") must not
//    depend on which worker wins a race. Attempts are predictable from
//    pre-level state (legal && !incoming), so per-entry application
//    numbers are precomputed as prefix sums over the frontier and passed
//    to PhaseGuard::attemptNth.
//  * Deadline/Cancelled stops are polled per node (the whole point of
//    stopping promptly); when one fires the in-flight level is discarded
//    entirely, committed entries included, leaving the self-consistent
//    DAG of the previous level barrier. Budget stops (Level/Node/Memory)
//    are evaluated only at the level barrier.

/// One buffered active edge discovered by an attempt.
struct ActiveResult {
  PhaseId P = PhaseId::BranchChaining;
  /// Resolved target when the instance hit the table (a node committed
  /// before the attempt ran); UINT32_MAX when the commit must resolve it.
  uint32_t KnownTarget = UINT32_MAX;
  /// The resulting instance, kept only for a target the commit resolves:
  /// it is either new at this level or a same-level duplicate.
  Function Instance;
  HashTriple Hash;
};

/// Everything the attempts on one frontier entry produced. Slots are
/// reused across levels, so steady-state expansion allocates nothing here.
struct TaskResult {
  uint16_t DormantBits = 0;
  uint16_t AttemptedBits = 0;
  uint64_t Attempted = 0;
  std::vector<ActiveResult> Active;
  std::vector<PhaseDiagnostic> Diags;

  void reset() {
    DormantBits = AttemptedBits = 0;
    Attempted = 0;
    Active.clear();
    Diags.clear();
  }
};

/// The calling thread's canonicalization scratch: every attempt a thread
/// runs reuses the same remap arrays and byte buffer.
CanonicalScratch &threadScratch() {
  static thread_local CanonicalScratch Scratch;
  return Scratch;
}

} // namespace

EnumerationResult
Enumerator::enumerate(const Function &Root,
                      EnumerationCheckpoint *Checkpoint) const {
  return run(Root, nullptr, Checkpoint);
}

EnumerationResult
Enumerator::resume(const Function &Root, EnumerationCheckpoint From,
                   EnumerationCheckpoint *Checkpoint) const {
  // An unfilled checkpoint resumes as a fresh run, so callers can use one
  // code path whether or not a prior session left state behind.
  return run(Root, From.Valid ? &From : nullptr, Checkpoint);
}

EnumerationResult Enumerator::run(const Function &Root,
                                  EnumerationCheckpoint *From,
                                  EnumerationCheckpoint *Out) const {
  EnumerationResult R;
  ResourceGovernor Gov;
  Gov.setDeadline(Config.DeadlineMs);
  Gov.setMemoryBudget(Config.MaxMemoryBytes);
  Gov.setStopToken(Config.Stop);
  const unsigned Threads = std::max(Config.Jobs, 1u);
  // Shards only pay for themselves against lock contention: one for a
  // lone thread, about sixteen per additional one.
  InstanceTable Table(16 * (Threads - 1) + 1);
  ThreadPool Pool(Threads - 1);
  const PhaseGuard::Options GuardOpts{Config.VerifyIr, Config.Faults};

  // Seals the result: resolves the stop reason (a run that finished but
  // pruned edges after rollbacks is not the complete space) and weights
  // the — possibly partial — DAG.
  auto Finish = [&](StopReason Why) {
    if (Why == StopReason::Complete && !R.Diagnostics.empty())
      Why = StopReason::VerifierFailure;
    R.Stop = Why;
    R.ApproxMemoryBytes = Gov.chargedBytes();
    computeWeights(R);
  };

  // Per-phase application counts so far: the FaultPlan coordinate space.
  // Persisted across levels and sessions.
  uint64_t AppCount[NumPhases] = {};

  std::vector<FrontierEntry> Frontier;
  uint64_t FrontierBytes = 0;
  uint32_t Level = 0;

  // Captures the continuation for a transient stop: the pending frontier,
  // the level counter, the application numbering valid at that barrier
  // (a discarded in-flight level hands back the pre-level snapshot).
  // Call after Finish() so Partial carries the final stop reason and
  // weights.
  auto Capture = [&](std::vector<FrontierEntry> &&Pending,
                     uint64_t PendingBytes, uint32_t LevelCounter,
                     const uint64_t (&Counts)[NumPhases]) {
    if (!Out)
      return;
    Out->Valid = true;
    Out->Partial = R;
    Out->Frontier = std::move(Pending);
    Out->LevelCounter = LevelCounter;
    for (int P = 0; P != NumPhases; ++P)
      Out->AppCount[P] = Counts[P];
    Out->FrontierBytes = PendingBytes;
  };

  if (From) {
    // Continue from the checkpoint barrier: the node hashes rebuild the
    // instance table, the saved frontier becomes the working frontier,
    // and the governor re-charges exactly what was accounted at capture.
    R = std::move(From->Partial);
    for (uint32_t I = 0; I != R.Nodes.size(); ++I)
      Table.tryEmplace(R.Nodes[I].Hash, I);
    Frontier = std::move(From->Frontier);
    Level = From->LevelCounter;
    FrontierBytes = From->FrontierBytes;
    Gov.charge(R.ApproxMemoryBytes);
    for (int P = 0; P != NumPhases; ++P)
      AppCount[P] = From->AppCount[P];
    // A still-violated limit (e.g. resuming under the same memory budget)
    // must stop here, exactly where the interrupted run stopped.
    if (StopReason Why = Gov.check(); Why != StopReason::Complete) {
      Finish(Why);
      if (isResumableStop(Why))
        Capture(std::move(Frontier), FrontierBytes, Level, AppCount);
      return R;
    }
  } else {
    CanonicalForm CF = canonicalize(Root, threadScratch(), /*KeepBytes=*/false,
                                    Config.RemapRegisters);
    DagNode N;
    N.Hash = CF.Hash;
    N.CodeSize = CF.Hash.InstCount;
    N.CfHash = controlFlowHash(Root);
    R.Nodes.push_back(N);
    Gov.charge(sizeof(DagNode));
    Table.tryEmplace(CF.Hash, 0);

    FrontierEntry E;
    E.Node = 0;
    E.Instance = Root;
    FootprintDedup Seen;
    FrontierBytes = entryFootprint(E, Seen);
    Gov.charge(FrontierBytes);
    Frontier.push_back(std::move(E));

    LevelStat L0;
    L0.Level = 0;
    L0.NewNodes = 1;
    L0.ActiveSequences = 1;
    R.Levels.push_back(L0);
  }

  // Working storage reused across levels.
  std::vector<uint64_t> Base;
  std::vector<TaskResult> Results;
  std::vector<uint8_t> Done;

  while (!Frontier.empty()) {
    ++Level;
    LevelStat LS;
    LS.Level = Level;

    const size_t N = Frontier.size();

    // Pre-level snapshot of the application numbering: a Deadline or
    // Cancelled stop discards the in-flight level, and its checkpoint
    // must restart the numbering from here.
    uint64_t AppSnapshot[NumPhases];
    for (int P = 0; P != NumPhases; ++P)
      AppSnapshot[P] = AppCount[P];

    // Precompute the application number every would-be attempt gets in
    // frontier order: entry I attempts phase P iff P is legal for its
    // state and not on an incoming edge.
    Base.resize(N * NumPhases);
    for (size_t I = 0; I != N; ++I)
      for (int PI = 0; PI != NumPhases; ++PI) {
        Base[I * NumPhases + PI] = AppCount[PI];
        if (PM.isLegal(phaseByIndex(PI), Frontier[I].Instance) &&
            !(Frontier[I].IncomingMask & (1u << PI)))
          ++AppCount[PI];
      }

    // The commit, in exact frontier order. The next-level frontier is
    // keyed by node id, merging sequence counts and incoming-phase masks
    // when several edges reach the same instance.
    std::unordered_map<uint32_t, size_t> NextIndex;
    std::vector<FrontierEntry> Next;

    // Commits one buffered active result \p A of entry \p E: resolves
    // its target, interning an instance first seen at this level, and
    // appends the edge. A child interned by this edge joins the next
    // frontier with its instance; one already discovered at this level
    // merges into its entry. Returns false after recording a diagnostic on
    // a broken internal invariant.
    auto Commit = [&](const FrontierEntry &E, ActiveResult &A) {
      const uint16_t Bit = static_cast<uint16_t>(1u << static_cast<int>(A.P));
      uint32_t Child = A.KnownTarget;
      bool Inserted = false;
      if (Child == UINT32_MAX) {
        auto [Id, IsNew] =
            Table.tryEmplace(A.Hash, static_cast<uint32_t>(R.Nodes.size()));
        Child = Id;
        Inserted = IsNew;
      }
      if (Inserted) {
        DagNode Nd;
        Nd.Hash = A.Hash;
        Nd.CodeSize = A.Hash.InstCount;
        Nd.CfHash = controlFlowHash(A.Instance);
        Nd.Level = Level;
        R.Nodes.push_back(Nd);
        Gov.charge(sizeof(DagNode));
        FrontierEntry NE;
        NE.Node = Child;
        NE.Instance = std::move(A.Instance);
        NE.IncomingMask = Bit;
        NE.Sequences = E.Sequences;
        NextIndex[Child] = Next.size();
        Next.push_back(std::move(NE));
      }
      ++LS.Active;
      R.Nodes[E.Node].ActiveMask |= Bit;
      R.Nodes[E.Node].Edges.push_back({A.P, Child});
      Gov.charge(sizeof(DagEdge));
      // A new child is already enqueued, and a cross edge to an
      // earlier-level node is already expanded: nothing to merge. Any
      // cycle a cross edge may close is detected during weight
      // computation.
      if (Inserted || R.Nodes[Child].Level != Level)
        return true;
      auto It = NextIndex.find(Child);
      if (It == NextIndex.end()) {
        // A same-level node must be in the frontier. A release-mode
        // assert would silently read garbage here; surface it as a
        // diagnosed partial result instead.
        PhaseDiagnostic D;
        D.Phase = A.P;
        D.Func = Root.Name;
        D.Message =
            "internal error: same-level node missing from the frontier";
        R.Diagnostics.push_back(std::move(D));
        return false;
      }
      Next[It->second].IncomingMask |= Bit;
      Next[It->second].Sequences += E.Sequences;
      return true;
    };

    // Commits everything entry \p I produced: its results in the phase
    // order they were buffered, then its masks, counts and diagnostics.
    // Returns false on a broken internal invariant.
    auto CommitEntry = [&](size_t I) {
      const FrontierEntry &E = Frontier[I];
      TaskResult &T = Results[I];
      for (ActiveResult &A : T.Active)
        if (!Commit(E, A))
          return false;
      R.Nodes[E.Node].DormantMask |= T.DormantBits;
      R.Nodes[E.Node].AttemptedMask |= T.AttemptedBits;
      R.AttemptedPhases += T.Attempted;
      LS.Attempted += T.Attempted;
      for (PhaseDiagnostic &D : T.Diags)
        R.Diagnostics.push_back(std::move(D));
      return true;
    };

    // What a discarded level must restore.
    const size_t NodesBefore = R.Nodes.size();
    const size_t DiagsBefore = R.Diagnostics.size();
    const uint64_t AttemptedBefore = R.AttemptedPhases;
    const uint64_t ChargedBefore = Gov.chargedBytes();

    // Entries are committed as soon as every earlier one is, by whichever
    // thread completes the prefix — so with one thread each entry commits
    // right after its expansion, and with several the commit overlaps the
    // expansion. One thread commits at a time; the hand-over goes through
    // CommitMutex.
    std::mutex CommitMutex;
    Done.assign(N, 0);
    size_t Cursor = 0;
    bool Committing = false;
    bool Broken = false;
    // First stop observed by any worker this level (Deadline/Cancelled
    // only); Complete means the level ran through.
    std::atomic<uint8_t> LevelStop{
        static_cast<uint8_t>(StopReason::Complete)};

    Results.resize(N);
    Pool.parallelFor(N, [&](size_t I) {
      // Node-granularity stop poll: one in-flight stop discards the rest
      // of the level cheaply. A skipped entry is never committed.
      if (LevelStop.load(std::memory_order_relaxed) !=
          static_cast<uint8_t>(StopReason::Complete))
        return;
      if (StopReason Why = Gov.check(); Why == StopReason::Cancelled ||
                                        Why == StopReason::Deadline) {
        LevelStop.store(static_cast<uint8_t>(Why),
                        std::memory_order_relaxed);
        return;
      }

      const FrontierEntry &E = Frontier[I];
      TaskResult &T = Results[I];
      T.reset();
      PhaseGuard Guard(PM, GuardOpts);
      Function Work;
      // c and k both start from the register-assigned entry: assign it
      // once, at the first of them, and hand each a copy.
      Function Assigned;
      for (int PI = 0; PI != NumPhases; ++PI) {
        const PhaseId P = phaseByIndex(PI);
        const uint16_t Bit = static_cast<uint16_t>(1u << PI);
        // Illegal phases count as dormant, and so does the phase on the
        // incoming edge: it was just active producing this node, and no
        // phase succeeds twice consecutively.
        if (!PM.isLegal(P, E.Instance) || (E.IncomingMask & Bit)) {
          T.DormantBits |= Bit;
          continue;
        }
        const Function *From = &E.Instance;
        if (!E.Instance.State.RegsAssigned && PM.requiresRegAssignment(P)) {
          if (!Assigned.State.RegsAssigned) {
            Assigned = E.Instance;
            assignRegisters(Assigned);
          }
          From = &Assigned;
        }
        // The working copy is a refcounted handle copy of the parent's
        // blocks — a dormant attempt unshares nothing, an active one
        // materializes only the blocks it rewrote.
        Work = *From;
        ++T.Attempted;
        T.AttemptedBits |= Bit;
        if (Guard.attemptNth(P, Work, Base[I * NumPhases + PI] + 1) !=
            PhaseGuard::Outcome::Active) {
          // Dormant — or rolled back after a verifier failure, which
          // prunes the edge and ends this branch of the space the same
          // way (the guard recorded the diagnostic).
          T.DormantBits |= Bit;
          continue;
        }
        ActiveResult A;
        A.P = P;
        A.Hash = canonicalize(Work, threadScratch(), /*KeepBytes=*/false,
                              Config.RemapRegisters)
                     .Hash;
        // Only committed nodes are in the table, so a hit is final.
        if (std::optional<uint32_t> Hit = Table.lookup(A.Hash))
          A.KnownTarget = *Hit;
        else
          A.Instance = std::move(Work);
        T.Active.push_back(std::move(A));
      }
      T.Diags = Guard.takeDiagnostics();

      std::unique_lock<std::mutex> Lock(CommitMutex);
      Done[I] = 1;
      if (Committing)
        return;
      Committing = true;
      while (!Broken && Cursor != N && Done[Cursor]) {
        const size_t C = Cursor;
        Lock.unlock();
        const bool Ok = CommitEntry(C);
        Lock.lock();
        Broken = !Ok;
        ++Cursor;
      }
      Committing = false;
    });

    if (Broken) {
      Finish(StopReason::InternalError);
      return R;
    }
    if (StopReason Why = static_cast<StopReason>(
            LevelStop.load(std::memory_order_relaxed));
        Why != StopReason::Complete) {
      // Discard the in-flight level wholesale, committed entries
      // included: the DAG goes back to the previous barrier, where it is
      // self-consistent (frontier nodes have no edges or masks before
      // their expansion), and the checkpoint re-expands this level.
      R.Nodes.resize(NodesBefore);
      for (const FrontierEntry &E : Frontier) {
        DagNode &Nd = R.Nodes[E.Node];
        Nd.Edges.clear();
        Nd.ActiveMask = Nd.DormantMask = Nd.AttemptedMask = 0;
      }
      R.Diagnostics.resize(DiagsBefore);
      R.AttemptedPhases = AttemptedBefore;
      Gov.release(Gov.chargedBytes() - ChargedBefore);
      Finish(Why);
      if (isResumableStop(Why))
        Capture(std::move(Frontier), FrontierBytes, Level - 1, AppSnapshot);
      return R;
    }

    LS.NewNodes = Next.size();
    uint64_t NextBytes = 0;
    {
      FootprintDedup Seen;
      for (const FrontierEntry &E : Next) {
        LS.ActiveSequences += E.Sequences;
        NextBytes += entryFootprint(E, Seen);
      }
    }
    if (LS.Attempted || LS.NewNodes)
      R.Levels.push_back(LS);
    if (!Next.empty())
      R.MaxActiveLength = Level;

    // Level boundary: the expanded frontier is released, the next one
    // charged, and every stop condition polled while the DAG is in a
    // self-consistent state.
    Gov.release(FrontierBytes);
    Gov.charge(NextBytes);
    FrontierBytes = NextBytes;

    StopReason Why = StopReason::Complete;
    if (LS.ActiveSequences > Config.MaxLevelSequences)
      Why = StopReason::LevelBudget;
    else if (R.Nodes.size() > Config.MaxTotalNodes)
      Why = StopReason::NodeBudget;
    else
      Why = Gov.check();
    if (Why != StopReason::Complete) {
      Finish(Why);
      if (isResumableStop(Why))
        Capture(std::move(Next), NextBytes, Level, AppCount);
      return R;
    }
    Frontier = std::move(Next);
  }

  Finish(StopReason::Complete);
  // Keep the BFS depth when the space is cyclic.
  if (!R.Cyclic)
    R.MaxActiveLength = longestPathLength(R);
  return R;
}

void pose::computeWeights(EnumerationResult &R) {
  const size_t N = R.Nodes.size();
  // Kahn's algorithm on reversed edges: process nodes whose children are
  // all weighted.
  std::vector<uint32_t> PendingChildren(N, 0);
  std::vector<std::vector<uint32_t>> Parents(N);
  for (size_t I = 0; I != N; ++I) {
    PendingChildren[I] = static_cast<uint32_t>(R.Nodes[I].Edges.size());
    for (const DagEdge &E : R.Nodes[I].Edges)
      Parents[E.To].push_back(static_cast<uint32_t>(I));
  }
  std::vector<uint32_t> Ready;
  for (size_t I = 0; I != N; ++I)
    if (PendingChildren[I] == 0)
      Ready.push_back(static_cast<uint32_t>(I));
  size_t Processed = 0;
  while (!Ready.empty()) {
    uint32_t Id = Ready.back();
    Ready.pop_back();
    ++Processed;
    DagNode &Node = R.Nodes[Id];
    if (Node.isLeaf()) {
      Node.Weight = 1;
    } else {
      Node.Weight = 0;
      for (const DagEdge &E : Node.Edges)
        Node.Weight += R.Nodes[E.To].Weight;
    }
    for (uint32_t P : Parents[Id])
      if (--PendingChildren[P] == 0)
        Ready.push_back(P);
  }
  if (Processed != N) {
    // Cycle: give unprocessed nodes weight 1 so downstream statistics
    // stay finite, and flag the result.
    R.Cyclic = true;
    for (size_t I = 0; I != N; ++I)
      if (PendingChildren[I] != 0 && R.Nodes[I].Weight == 0)
        R.Nodes[I].Weight = 1;
  }
}
