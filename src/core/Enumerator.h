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
#include <span>
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
  /// Outgoing edges, one per active phase, in ascending phase order: this
  /// node's slice of its EnumerationResult's Edges array.
  std::span<const DagEdge> Edges;
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
  /// it fires, the in-flight level is discarded and the result is the DAG
  /// of the previous level boundary, with that boundary's frontier.
  uint64_t DeadlineMs = 0;
  /// Approximate memory budget in bytes, tracked by node, edge and
  /// frontier-instance accounting at the declared MemoryCharge sizes;
  /// 0 = unlimited. Checked at level boundaries.
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

/// The memory governor's declared charge per object, in bytes (see
/// EnumeratorConfig::MaxMemoryBytes). They are fixed numbers, not sizeof,
/// so where a memory-budget run stops depends neither on the standard
/// library nor on a layout change; they equal the LP64 libstdc++ sizes
/// they were first measured from (docs/ROBUSTNESS.md).
struct MemoryCharge {
  static constexpr uint64_t Node = 72; ///< A DAG node.
  static constexpr uint64_t Edge = 8;  ///< A DAG edge.
  /// A frontier entry, with its instance's Function object and one block
  /// pointer per block; each distinct block (with its RTLs) and slot list
  /// is charged once per frontier.
  static constexpr uint64_t FrontierEntry = 112;
  static constexpr uint64_t Function = 88;
  static constexpr uint64_t BlockPointer = 8;
  static constexpr uint64_t Block = 32;
  static constexpr uint64_t Rtl = 64;
  static constexpr uint64_t StackSlot = 40;
};

/// Frontier entry: a node discovered at the current BFS level, waiting to
/// be expanded, with its function instance. Exposed (rather than kept
/// private to the engine) because an interrupted result carries its
/// committed frontier, which the store persists across process lifetimes
/// (see EnumerationResult::Frontier and src/store).
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

/// Result of one exhaustive enumeration. Move-only: every node's Edges
/// views this result's own Edges array, which a copy would not own.
struct EnumerationResult {
  EnumerationResult() = default;
  EnumerationResult(EnumerationResult &&) = default;
  EnumerationResult &operator=(EnumerationResult &&) = default;
  EnumerationResult(const EnumerationResult &) = delete;
  EnumerationResult &operator=(const EnumerationResult &) = delete;

  std::vector<DagNode> Nodes; ///< Node 0 is the unoptimized instance.
  /// Every node's outgoing edges, node by node in id order (CSR). Edges
  /// are only appended (appendEdges) to a node after which no node has
  /// edges yet: the engine expands each node once, in id order, and a
  /// decode reads them in that order.
  std::vector<DagEdge> Edges;
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
  /// The committed but unexpanded frontier at the barrier where a
  /// transient limit (see isResumableStop) stopped the run: with the DAG
  /// so far, everything Enumerator::resume needs to continue it. Empty
  /// for every other stop. Its nodes all belong to the last committed
  /// level.
  std::vector<FrontierEntry> Frontier;

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

  /// Appends \p Count edges to node \p Id's and returns them, value-
  /// initialized, to be filled in. No node after \p Id may have edges yet,
  /// so that node \p Id's edges stay the tail of the array. When the array
  /// moves, every node's span is re-pointed from the span sizes, in id
  /// order.
  std::span<DagEdge> appendEdges(uint32_t Id, size_t Count);
};

/// True for the transient stops (Deadline, MemoryBudget, Cancelled), whose
/// results carry their frontier and can be resumed. A budget stop
/// (LevelBudget/NodeBudget) is a final verdict about the configured space:
/// resuming past it would change its meaning.
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
  /// tests/core/parallel_enumerator_test.cpp). A run stopped by a
  /// transient limit returns its frontier with the partial DAG.
  EnumerationResult enumerate(const Function &Root) const;

  /// Continues \p From, an interrupted result of an enumerate()/resume()
  /// of the same root under the same DAG-affecting configuration (the
  /// artifact store enforces this with its cache key), from its frontier.
  /// The final result is byte-identical to an uninterrupted run, for any
  /// mix of job counts across the sessions. A result whose stop is not
  /// resumable is returned as it is.
  EnumerationResult resume(const Function &Root, EnumerationResult From) const;

private:
  EnumerationResult run(const Function &Root, EnumerationResult *From) const;

  const PhaseManager &PM;
  EnumeratorConfig Config;
};

/// Computes Weight for every node of \p R (leaves get 1, interior nodes
/// the sum over out-edges of child weights — Section 5, Figure 7). Sets
/// R.Cyclic instead of looping forever if the graph is not a DAG.
void computeWeights(EnumerationResult &R);

} // namespace pose

#endif // POSE_CORE_ENUMERATOR_H
