//===- Equivalence.cpp - Observational-equivalence collapse ---------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/sem/Equivalence.h"

#include "src/core/DagPaths.h"
#include "src/ir/Function.h"
#include "src/support/Fnv.h"

#include <algorithm>
#include <map>

namespace pose {
namespace sem {

namespace {

/// The vector set one equivalence computation actually runs: every
/// generated vector whose root run fits the step budget, with the
/// per-vector instance limit derived from the root's own cost. A pure
/// function of (module, root, seed, count) — both computeEquivalence and
/// findDivergence must see the identical plan.
struct VectorPlan {
  std::vector<std::vector<int32_t>> All; ///< Every generated vector.
  std::vector<uint32_t> Used;            ///< Kept indices, ascending.
  std::vector<uint64_t> Limits;          ///< Step limit per kept vector.
};

VectorPlan planVectors(Interpreter &Sim, const Function &Root,
                       uint64_t Seed, uint32_t Count) {
  VectorPlan P;
  P.All = generateVectors(static_cast<uint32_t>(Root.NumParams), Seed,
                          Count);
  Sim.overrideFunction(Root.Name, &Root);
  for (uint32_t I = 0; I != P.All.size(); ++I) {
    const RunResult R = Sim.run(Root.Name, P.All[I], kRootStepLimit);
    // A step-limit trap is a resource verdict, not a behavior; keeping
    // such a vector would compare instances at the budget edge, where
    // legitimate dynamic-count differences masquerade as divergence.
    if (!R.Ok && R.trapKind() == "step limit exceeded")
      continue;
    P.Used.push_back(I);
    P.Limits.push_back(instanceStepLimit(R.DynamicInsts));
  }
  Sim.overrideFunction(Root.Name, nullptr);
  return P;
}

/// Fingerprint of \p Inst over the planned vectors, plus its total
/// dynamic count and all-Ok flag.
void digestInstance(Interpreter &Sim, const std::string &Name,
                    const Function &Inst, const VectorPlan &P,
                    uint64_t &Behavior, uint64_t &Dynamic, bool &AllOk) {
  Sim.overrideFunction(Name, &Inst);
  Fnv1a H;
  H.word(P.Used.size());
  Dynamic = 0;
  AllOk = true;
  for (size_t K = 0; K != P.Used.size(); ++K) {
    const RunResult R = Sim.run(Name, P.All[P.Used[K]], P.Limits[K]);
    H.word(behaviorDigest(R));
    Dynamic += R.DynamicInsts;
    AllOk = AllOk && R.Ok;
  }
  Behavior = H.value();
}

} // namespace

uint64_t behaviorDigest(const RunResult &R) {
  Fnv1a H;
  H.word(R.Ok ? 1 : 0);
  if (R.Ok) {
    H.word(static_cast<uint32_t>(R.ReturnValue));
    H.word(R.Output.size());
    for (int32_t W : R.Output)
      H.word(static_cast<uint32_t>(W));
  } else {
    // Trap class only: a legally rescheduled instance may trap at a
    // different point, with different partial output (file comment).
    const std::string Kind = R.trapKind();
    H.word(Kind.size());
    H.bytes(Kind);
  }
  return H.value();
}

std::string renderBehavior(const RunResult &R) {
  if (!R.Ok)
    return "trap: " + R.trapKind();
  std::string S = "ok ret=" + std::to_string(R.ReturnValue) + " out=[";
  for (size_t I = 0; I != R.Output.size(); ++I) {
    if (I)
      S += ' ';
    S += std::to_string(R.Output[I]);
  }
  S += ']';
  return S;
}

EquivRecord computeEquivalence(const Module &M, const Function &Root,
                               const PhaseManager &PM,
                               const EnumerationResult &R,
                               const EquivInputs &In) {
  EquivRecord E;
  E.VectorSeed = In.Seed;
  E.VectorsRequested = In.VectorCount;
  E.NumParams = static_cast<uint32_t>(Root.NumParams);
  if (R.Nodes.empty())
    return E;

  Interpreter Sim(M, kEquivMemWords);
  const VectorPlan P = planVectors(Sim, Root, In.Seed, In.VectorCount);
  E.UsedVectors = P.Used;

  const size_t N = R.Nodes.size();
  E.NodeBehavior.assign(N, 0);
  E.NodeDynamic.assign(N, 0);
  E.NodeAllOk.assign(N, 0);
  DagPaths Paths(R);
  Paths.forEachInstance(Root, PM, In.Faults,
                        [&](uint32_t Id, const Function &Inst) {
                          uint64_t Behavior = 0, Dynamic = 0;
                          bool AllOk = false;
                          digestInstance(Sim, Root.Name, Inst, P, Behavior,
                                         Dynamic, AllOk);
                          E.NodeBehavior[Id] = Behavior;
                          E.NodeDynamic[Id] = Dynamic;
                          E.NodeAllOk[Id] = AllOk ? 1 : 0;
                        });
  Sim.overrideFunction(Root.Name, nullptr);
  return E;
}

CollapseReport collapseClasses(const EnumerationResult &R,
                               const EquivRecord &E) {
  CollapseReport Rep;
  Rep.Instances = E.NodeBehavior.size();
  Rep.UsedVectors = E.UsedVectors.size();
  Rep.Certified = R.complete();
  std::map<uint64_t, size_t> Index; // behavior -> class position
  for (uint32_t Id = 0; Id != E.NodeBehavior.size(); ++Id) {
    const uint64_t B = E.NodeBehavior[Id];
    const uint64_t Dyn = E.NodeDynamic[Id];
    const bool Leaf = Id < R.Nodes.size() && R.Nodes[Id].isLeaf();
    auto It = Index.find(B);
    if (It == Index.end()) {
      It = Index.emplace(B, Rep.Classes.size()).first;
      EquivClass C;
      C.Behavior = B;
      C.MinDynamic = C.MaxDynamic = Dyn;
      C.BestNode = Id;
      C.AllOk = E.NodeAllOk[Id] != 0;
      Rep.Classes.push_back(std::move(C));
    }
    EquivClass &C = Rep.Classes[It->second];
    C.Nodes.push_back(Id);
    if (Dyn < C.MinDynamic) {
      C.MinDynamic = Dyn;
      C.BestNode = Id;
    }
    C.MaxDynamic = std::max(C.MaxDynamic, Dyn);
    C.AllOk = C.AllOk && E.NodeAllOk[Id] != 0;
    if (Leaf &&
        (C.BestLeaf == 0xFFFFFFFFu || Dyn < E.NodeDynamic[C.BestLeaf]))
      C.BestLeaf = Id;
  }
  return Rep;
}

DivergenceReport findDivergence(const Module &M, const Function &Root,
                                const PhaseManager &PM,
                                const EnumerationResult &R,
                                const EquivRecord &E,
                                const EquivInputs &In) {
  DivergenceReport D;
  uint32_t NodeB = 0;
  for (uint32_t Id = 1; Id < E.NodeBehavior.size(); ++Id)
    if (E.NodeBehavior[Id] != E.NodeBehavior[0]) {
      NodeB = Id;
      break;
    }
  if (NodeB == 0)
    return D;

  D.Diverged = true;
  D.NodeA = 0;
  D.NodeB = NodeB;
  DagPaths Paths(R);
  D.SequenceA = "";
  D.SequenceB = Paths.sequenceTo(NodeB);

  // Name the first diverging vector by re-running the two instances side
  // by side under the recorded plan.
  Interpreter Sim(M, kEquivMemWords);
  const VectorPlan P = planVectors(Sim, Root, In.Seed, In.VectorCount);
  const Function Inst = Paths.materialize(Root, PM, NodeB, In.Faults);
  for (size_t K = 0; K != P.Used.size(); ++K) {
    const std::vector<int32_t> &V = P.All[P.Used[K]];
    Sim.overrideFunction(Root.Name, &Root);
    const RunResult RA = Sim.run(Root.Name, V, P.Limits[K]);
    Sim.overrideFunction(Root.Name, &Inst);
    const RunResult RB = Sim.run(Root.Name, V, P.Limits[K]);
    if (behaviorDigest(RA) == behaviorDigest(RB))
      continue;
    D.VectorIndex = static_cast<int32_t>(P.Used[K]);
    D.Vector = V;
    D.BehaviorA = renderBehavior(RA);
    D.BehaviorB = renderBehavior(RB);
    break;
  }
  Sim.overrideFunction(Root.Name, nullptr);
  return D;
}

} // namespace sem
} // namespace pose
