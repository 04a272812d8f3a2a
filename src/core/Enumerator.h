//===- Enumerator.h - Exhaustive phase order space enumeration -*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central algorithm (Section 4): breadth-first, level-by-level
/// enumeration of every distinct function instance reachable by any
/// ordering of the fifteen phases, with two pruning techniques:
///
///  1. *Dormant phase detection* (4.1) — an attempted phase that changes
///     nothing terminates that branch of the space; an active phase is not
///     re-attempted immediately (no phase is successful twice in a row).
///  2. *Identical instance detection* (4.2) — canonicalized instances that
///     hash to a previously seen triple merge into one DAG node, turning
///     the exponential tree into a modest DAG.
///
/// The search-speed enhancements of Section 4.3 (in-memory instances and
/// prefix sharing) are how the engine works: every frontier entry holds
/// its instance, and each attempt starts from a copy-on-write copy of it.
/// Figure 6's naive baseline, which re-applies the whole phase prefix from
/// the unoptimized function for every evaluation, is not an engine mode:
/// bench_fig6_enhancements computes it by replaying the enumerated DAG.
/// Neither is the independence-based pruning Section 7 proposes:
/// bench_ablation replays that over the exhaustive DAG too.
///
/// Enumeration is embarrassingly parallel within a BFS level: every
/// frontier instance attempts its phases independently, the only shared
/// state being the instance table. The one engine expands each level on
/// EnumeratorConfig::Jobs threads (one runs everything inline); workers
/// buffer their discoveries and one thread at a time commits them in
/// frontier order, so the DAG is byte-identical for every job count.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_CORE_ENUMERATOR_H
#define POSE_CORE_ENUMERATOR_H

#include "src/core/Canonical.h"
#include "src/ir/Function.h"
#include "src/opt/Phase.h"
#include "src/opt/PhaseGuard.h"
#include "src/support/StopToken.h"

#include <cstdint>
#include <vector>

namespace pose {

class PhaseManager;

/// One outgoing edge of a DAG node: applying Phase to the node's instance
/// yields node To.
struct DagEdge {
  PhaseId Phase;
  uint32_t To;
};

/// One distinct function instance in the enumerated space.
struct DagNode {
  HashTriple Hash;
  /// BFS level at which the instance was first discovered (= length of
  /// the shortest active sequence producing it).
  uint32_t Level = 0;
  /// Static instruction count of the instance (code size).
  uint32_t CodeSize = 0;
  /// Hash of the control-flow shape (for the CF statistic).
  uint64_t CfHash = 0;
  /// Bit i set: phase i is active at this node (an edge exists).
  uint16_t ActiveMask = 0;
  /// Bit i set: phase i was found (or known) dormant at this node.
  /// Illegal phases are recorded as dormant, matching the paper's
  /// treatment (e.g. c/k "always disable" o once assignment happens).
  uint16_t DormantMask = 0;
  /// Bit i set: phase i was actually attempted (ran the optimizer), the
  /// unit of the paper's "Attempted Phases" statistic.
  uint16_t AttemptedMask = 0;
  /// Outgoing edges, one per active phase.
  std::vector<DagEdge> Edges;
  /// Number of distinct active sequences beyond this node (Section 5,
  /// Figure 7): 1 for leaves, sum over edges of child weights otherwise.
  uint64_t Weight = 0;

  bool isLeaf() const { return Edges.empty(); }
  bool activeAt(PhaseId P) const {
    return ActiveMask & (1u << static_cast<int>(P));
  }
  /// Returns the child reached via \p P, or UINT32_MAX when \p P is
  /// dormant here.
  uint32_t childVia(PhaseId P) const {
    for (const DagEdge &E : Edges)
      if (E.Phase == P)
        return E.To;
    return UINT32_MAX;
  }
};

/// Per-level statistics backing Figures 1, 2 and 4.
struct LevelStat {
  uint32_t Level = 0;
  /// Distinct new instances discovered at this level (DAG width).
  uint64_t NewNodes = 0;
  /// Active sequences reaching this level (the tree of Figure 2; this is
  /// the quantity the paper caps at one million per level).
  uint64_t ActiveSequences = 0;
  /// Phase attempts performed while expanding the previous level.
  uint64_t Attempted = 0;
  /// Attempts that were active.
  uint64_t Active = 0;
};

/// Tuning knobs for one enumeration.
struct EnumeratorConfig {
  /// Abort when the number of active sequences at one level exceeds this
  /// (the paper's criterion: "we terminated the search any time the
  /// number of optimization sequences to apply at any particular level
  /// grew to more than a million").
  uint64_t MaxLevelSequences = 1'000'000;
  /// Additional safety valve on total distinct instances.
  uint64_t MaxTotalNodes = 4'000'000;
  /// Disable the Section 4.2.1 register remapping, so instances that
  /// differ only in register numbering count as distinct (ablation of the
  /// "more aggressive pruning" claim; see bench_ablation).
  bool RemapRegisters = true;
  /// Wall-clock deadline in milliseconds, measured from the start of
  /// enumerate(); 0 = unlimited. Polled before expanding each node; when
  /// it fires, the in-flight level is discarded and the result (and
  /// checkpoint) is the DAG of the previous level boundary.
  uint64_t DeadlineMs = 0;
  /// Approximate memory budget in bytes, tracked by node, edge and
  /// frontier-instance accounting; 0 = unlimited. Checked at level
  /// boundaries.
  uint64_t MaxMemoryBytes = 0;
  /// Cooperative cancellation (not owned; may be nullptr). Polled like
  /// DeadlineMs.
  const StopToken *Stop = nullptr;
  /// Run the IR verifier after every active phase application; a failure
  /// rolls the instance back, records a diagnostic, and marks the phase
  /// dormant at that node (see PhaseGuard).
  bool VerifyIr = false;
  /// Deterministic fault injection for testing the rollback path (not
  /// owned; may be nullptr).
  const FaultPlan *Faults = nullptr;
  /// Threads used to expand each BFS level; 1 (or 0) expands inline on
  /// the calling thread. Per-entry discoveries are buffered and committed
  /// in frontier order, through a sharded concurrent instance table, so
  /// the resulting DAG — node ids, edges, statistics,
  /// stop reason, diagnostics, accounted memory — is byte-identical for
  /// every job count and every deterministic stop condition (see
  /// docs/ROBUSTNESS.md for the exact contract). Execution-only.
  unsigned Jobs = 1;
};

/// Result of one exhaustive enumeration.
struct EnumerationResult {
  std::vector<DagNode> Nodes; ///< Node 0 is the unoptimized instance.
  /// Why the enumeration ended: Complete for an exhausted space, any
  /// other value for the specific limit (or failure) that stopped it.
  StopReason Stop = StopReason::Complete;
  bool Cyclic = false; ///< True if an edge closes a cycle.
  /// Optimizer invocations: one per attempted phase (Figure 6's
  /// prefix-shared column).
  uint64_t AttemptedPhases = 0;
  /// Largest active sequence length (the "Len" column of Table 3).
  uint32_t MaxActiveLength = 0;
  std::vector<LevelStat> Levels;
  /// Guarded failures: one entry per rolled-back phase application (and
  /// per internal error). Empty on a clean run.
  std::vector<PhaseDiagnostic> Diagnostics;
  /// Bytes accounted against MaxMemoryBytes when the run ended.
  uint64_t ApproxMemoryBytes = 0;

  /// Derived from Stop: true only for a fully exhausted, failure-free
  /// space (the old Complete flag, with pruned-by-rollback runs now
  /// correctly reported as incomplete).
  bool complete() const { return Stop == StopReason::Complete; }

  size_t leafCount() const {
    size_t N = 0;
    for (const DagNode &Nd : Nodes)
      N += Nd.isLeaf();
    return N;
  }
};

/// Frontier entry: a node discovered at the current BFS level, waiting to
/// be expanded, with its function instance. Exposed (rather than kept
/// private to the engine) because the checkpoint/resume machinery must
/// persist the committed frontier across process lifetimes (see
/// EnumerationCheckpoint and src/store).
struct FrontierEntry {
  uint32_t Node = 0;
  /// The instance itself; its State decides which phases are legal.
  Function Instance;
  /// Phases along incoming edges; known dormant without attempting (an
  /// active phase is never successful twice consecutively).
  uint16_t IncomingMask = 0;
  /// Number of distinct active sequences reaching this node.
  uint64_t Sequences = 1;
};

/// A resumable continuation of an interrupted enumeration: everything the
/// engine needs to pick up at the last committed level barrier and produce
/// a DAG byte-identical to an uninterrupted run. Checkpoints are taken
/// only for *transient* stops (Deadline, MemoryBudget, Cancelled) — a
/// budget stop (LevelBudget/NodeBudget) is a final verdict about the
/// configured space and resuming past it would change its meaning.
struct EnumerationCheckpoint {
  /// True once the engine has filled the checkpoint in.
  bool Valid = false;
  /// The partial result as returned to the caller (stop reason set,
  /// weights computed). Node hashes double as the instance table: resume
  /// rebuilds the table from them.
  EnumerationResult Partial;
  /// The committed-but-unexpanded frontier at the stop barrier.
  std::vector<FrontierEntry> Frontier;
  /// Value of the engine's level counter at the barrier; the resumed loop
  /// continues with LevelCounter + 1.
  uint32_t LevelCounter = 0;
  /// Per-phase application counts in frontier order (the FaultPlan and
  /// diagnostic coordinate space).
  uint64_t AppCount[NumPhases] = {};
  /// Governor accounting of the saved frontier (already included in
  /// Partial.ApproxMemoryBytes; split out so the resumed engine can
  /// release it at its first barrier).
  uint64_t FrontierBytes = 0;
};

/// True for stop reasons that leave a resumable checkpoint behind.
inline bool isResumableStop(StopReason R) {
  return R == StopReason::Deadline || R == StopReason::MemoryBudget ||
         R == StopReason::Cancelled;
}

/// Runs the exhaustive enumeration for single functions.
class Enumerator {
public:
  Enumerator(const PhaseManager &PM, EnumeratorConfig Config)
      : PM(PM), Config(Config) {}

  /// Enumerates all reachable instances of \p Root (which is copied;
  /// typically the unoptimized function straight out of the front end).
  /// The result does not depend on Config.Jobs (differentially tested in
  /// tests/core/parallel_enumerator_test.cpp).
  EnumerationResult enumerate(const Function &Root) const {
    return enumerate(Root, nullptr);
  }

  /// Same, but when the run is stopped by a transient limit (Deadline,
  /// MemoryBudget, Cancelled) and \p Checkpoint is non-null, the
  /// continuation state is captured there (Checkpoint->Valid set). Other
  /// stop reasons leave \p Checkpoint invalid.
  EnumerationResult enumerate(const Function &Root,
                              EnumerationCheckpoint *Checkpoint) const;

  /// Continues an enumeration of \p Root from \p From (which must have
  /// been produced by an enumerate()/resume() of the same root under the
  /// same DAG-affecting configuration — the artifact store enforces this
  /// with its cache key). The final result is byte-identical to an
  /// uninterrupted run, for any mix of job counts across the sessions.
  /// Stops again are captured in \p Checkpoint like enumerate().
  EnumerationResult resume(const Function &Root, EnumerationCheckpoint From,
                           EnumerationCheckpoint *Checkpoint = nullptr) const;

private:
  EnumerationResult run(const Function &Root, EnumerationCheckpoint *From,
                        EnumerationCheckpoint *Out) const;

  const PhaseManager &PM;
  EnumeratorConfig Config;
};

/// Computes Weight for every node of \p R (leaves get 1, interior nodes
/// the sum over out-edges of child weights — Section 5, Figure 7). Sets
/// R.Cyclic instead of looping forever if the graph is not a DAG.
void computeWeights(EnumerationResult &R);

} // namespace pose

#endif // POSE_CORE_ENUMERATOR_H
