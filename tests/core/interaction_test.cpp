//===- interaction_test.cpp - Interaction analysis tests -----------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/Interaction.h"

#include "src/opt/PhaseManager.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

// Stand-ins for the paper's four abstract phases a, b, c, d of Figure 7.
constexpr PhaseId A = PhaseId::BranchChaining;
constexpr PhaseId B = PhaseId::Cse;
constexpr PhaseId C = PhaseId::UnreachableCode;
constexpr PhaseId D = PhaseId::LoopUnrolling;

uint16_t maskOf(std::initializer_list<PhaseId> Ps) {
  uint16_t M = 0;
  for (PhaseId P : Ps)
    M |= static_cast<uint16_t>(1u << static_cast<int>(P));
  return M;
}

/// Builds the weighted DAG of the paper's Figure 7:
///
///   root [abc]   --a--> n1 [bc], --b--> n2 [a? per text: b enables a on
///   path a-b-a, a disabled along b-…; c independent with a]
///
/// We reproduce the three textual claims exactly:
///  - "b enables a along the path a-b-a": a dormant at n1(post-a)?  No —
///    the figure has a active at root, dormant after its own application,
///    then b's application re-enables it.
///  - "it could be seen that a is not enabled by b along the path c-b"
///  - "phases dormant at the start can become active later (d along
///    b-c-d)"
EnumerationResult figure7() {
  EnumerationResult R;
  auto AddNode = [&R](uint16_t Active, uint16_t Dormant) {
    DagNode N;
    N.ActiveMask = Active;
    N.DormantMask = Dormant;
    R.Nodes.push_back(N);
    return static_cast<uint32_t>(R.Nodes.size() - 1);
  };
  const uint16_t All = maskOf({A, B, C, D});

  // Level 0: root, phases a, b, c active; d dormant.
  uint32_t Root = AddNode(maskOf({A, B, C}), All & ~maskOf({A, B, C}));
  // Level 1.
  uint32_t NA = AddNode(maskOf({B, C}), All & ~maskOf({B, C})); // after a
  uint32_t NB = AddNode(maskOf({C}), All & ~maskOf({C}));       // after b
  uint32_t NC = AddNode(maskOf({A, B}), All & ~maskOf({A, B})); // after c
  // Level 2.
  uint32_t NAB = AddNode(maskOf({A}), All & ~maskOf({A})); // a-b: a re-enabled
  uint32_t NAC = AddNode(0, All); // a-c leaf; also reached via c-a.
  uint32_t NBC = AddNode(maskOf({D}), All & ~maskOf({D})); // b-c: d enabled
  uint32_t NCB = AddNode(0, All); // c-b leaf: a NOT enabled by b here.
  // Level 3 leaves.
  uint32_t NABA = AddNode(0, All);
  uint32_t NBCD = AddNode(0, All);

  R.Nodes[Root].Edges = {{A, NA}, {B, NB}, {C, NC}};
  R.Nodes[NA].Edges = {{B, NAB}, {C, NAC}};
  R.Nodes[NB].Edges = {{C, NBC}};
  R.Nodes[NC].Edges = {{A, NAC}, {B, NCB}};
  R.Nodes[NAB].Edges = {{A, NABA}};
  R.Nodes[NBC].Edges = {{D, NBCD}};
  R.Stop = StopReason::Complete;
  computeWeights(R);
  return R;
}

TEST(Interaction, Figure7Weights) {
  EnumerationResult R = figure7();
  // Leaves weigh 1.
  EXPECT_EQ(R.Nodes[5].Weight, 1u); // NAC
  EXPECT_EQ(R.Nodes[7].Weight, 1u); // NCB
  // Interior: na = 1(nab->naba)+1(nac) = 2; nb = 1; nc = 1+1 = 2.
  EXPECT_EQ(R.Nodes[1].Weight, 2u);
  EXPECT_EQ(R.Nodes[2].Weight, 1u);
  EXPECT_EQ(R.Nodes[3].Weight, 2u);
  // Root: 2 + 1 + 2 = 5 — the figure's root weight.
  EXPECT_EQ(R.Nodes[0].Weight, 5u);
  EXPECT_FALSE(R.Cyclic);
}

TEST(Interaction, Figure7EnablingClaims) {
  EnumerationResult R = figure7();
  InteractionAnalysis IA;
  IA.addFunction(R);
  // "b enables a along the path a-b-a": the b edge NA->NAB has a dormant
  // before, active after. "a is not enabled by b along the path c-b":
  // NC->NCB has a... a was ACTIVE at NC, so it contributes to disabling,
  // not enabling. The only dormant->* b-transition for a is NA->NAB,
  // which is enabling: probability 1.
  EXPECT_DOUBLE_EQ(IA.enabling(A, B), 1.0);
  // "d along the path b-c-d": c enables d on NB->NBC (weight 1); c's
  // other edges Root->NC (weight 2) and NA->NAC (weight 1) keep d
  // dormant. e[d][c] = 1/4.
  EXPECT_NEAR(IA.enabling(D, C), 0.25, 1e-9);
  // Start probabilities: a, b, c active at the root; d not.
  EXPECT_DOUBLE_EQ(IA.startProbability(A), 1.0);
  EXPECT_DOUBLE_EQ(IA.startProbability(D), 0.0);
}

TEST(Interaction, Figure7DisablingClaims) {
  EnumerationResult R = figure7();
  InteractionAnalysis IA;
  IA.addFunction(R);
  // "a is active at the root node, but is disabled after b" (path b-c-d):
  // edge Root->NB via b: a active before, dormant after, weight 1. No
  // other b edge from an a-active node except NC->NCB (a active at NC,
  // dormant at NCB) weight 1. d[a][b] = (1+1)/(1+1) = 1.
  EXPECT_DOUBLE_EQ(IA.disabling(A, B), 1.0);
  // c never disables b at the root (b stays active at NC): mass says
  // Root->NC (b active->active, w=2), NA->NAC (b active->dormant, w=1),
  // NB->NBC (b dormant: not counted). d[b][c] = 1/3.
  EXPECT_NEAR(IA.disabling(B, C), 1.0 / 3.0, 1e-9);
}

TEST(Interaction, Figure7IndependenceClaims) {
  EnumerationResult R = figure7();
  InteractionAnalysis IA;
  IA.addFunction(R);
  // "a-c and c-a produce identical function instances … they are
  // independent in this situation. In contrast, sequences b-c and c-b do
  // not produce the same code."
  EXPECT_DOUBLE_EQ(IA.independence(A, C), 1.0);
  EXPECT_DOUBLE_EQ(IA.independence(C, A), 1.0); // Symmetric.
  EXPECT_DOUBLE_EQ(IA.independence(B, C), 0.0);
  // a and b are never both active with both orders converging: at root,
  // a-b leads to NAB, b-a does not exist (a dormant at NB).
  EXPECT_DOUBLE_EQ(IA.independence(A, B), 0.0);
}

TEST(Interaction, AccumulatesAcrossFunctions) {
  EnumerationResult R = figure7();
  InteractionAnalysis IA;
  IA.addFunction(R);
  IA.addFunction(R);
  EXPECT_EQ(IA.functionCount(), 2u);
  // Ratios are scale invariant.
  EXPECT_DOUBLE_EQ(IA.enabling(A, B), 1.0);
  EXPECT_DOUBLE_EQ(IA.startProbability(A), 1.0);
}

TEST(Interaction, RenderTables) {
  EnumerationResult R = figure7();
  InteractionAnalysis IA;
  IA.addFunction(R);
  std::string En = IA.renderTable(InteractionAnalysis::TableKind::Enabling);
  EXPECT_NE(En.find("St"), std::string::npos);
  EXPECT_NE(En.find("1.00"), std::string::npos);
  std::string Dis =
      IA.renderTable(InteractionAnalysis::TableKind::Disabling);
  EXPECT_NE(Dis.find("1.00"), std::string::npos);
  std::string Ind =
      IA.renderTable(InteractionAnalysis::TableKind::Independence);
  EXPECT_FALSE(Ind.empty());
}

/// Returns the 6-wide cell of \p Table at matrix position (Y, X), with
/// padding stripped — "" for a blank cell. \p StCol skips the Enabling
/// table's extra start-probability column.
std::string cell(const std::string &Table, PhaseId Y, PhaseId X,
                 bool StCol) {
  std::vector<std::string> Lines;
  for (size_t Pos = 0; Pos < Table.size();) {
    size_t Eol = Table.find('\n', Pos);
    Lines.push_back(Table.substr(Pos, Eol - Pos));
    Pos = Eol + 1;
  }
  const std::string &Row = Lines.at(1 + static_cast<size_t>(Y));
  size_t Col = 5 + (StCol ? 6 : 0) + static_cast<size_t>(X) * 6;
  std::string Cell = Row.substr(Col, 6);
  size_t Begin = Cell.find_first_not_of(' ');
  return Begin == std::string::npos ? "" : Cell.substr(Begin);
}

TEST(Interaction, TableGoldenCells) {
  // The fixed Figure 7 DAG renders to known cells. Beyond pinning the
  // format, this locks in the blanking rule: a cell is blank only when
  // the (Y, X) pair was never observed, while an observed-but-zero
  // probability renders as 0.00 — conflating them (the old < 0.005 rule)
  // hid real but rare interactions.
  EnumerationResult R = figure7();
  InteractionAnalysis IA;
  IA.addFunction(R);

  std::string En = IA.renderTable(InteractionAnalysis::TableKind::Enabling);
  std::string Header = "Phase    St";
  for (int X = 0; X != NumPhases; ++X)
    Header += std::string(5, ' ') + phaseCode(phaseByIndex(X));
  EXPECT_EQ(En.substr(0, En.find('\n')), Header);

  EXPECT_EQ(cell(En, A, B, true), "1.00"); // b enables a on a-b-a.
  EXPECT_EQ(cell(En, D, C, true), "0.25"); // c enables d on b-c-d.
  // a ran while b was dormant (NAB->NABA) and did not enable it:
  // observed, zero, so 0.00 — NOT blank.
  EXPECT_EQ(cell(En, B, A, true), "0.00");
  // a never runs while a is dormant: unobserved, blank.
  EXPECT_EQ(cell(En, A, A, true), "");
  // Instruction selection never runs in the figure: its column is blank.
  EXPECT_EQ(cell(En, A, PhaseId::InstructionSelection, true), "");
  // The St column holds the root-active probabilities.
  std::string RowA = En.substr(En.find('\n') + 1);
  RowA = RowA.substr(0, RowA.find('\n'));
  EXPECT_EQ(RowA.substr(5, 6), "  1.00"); // a active at the root.

  std::string Dis =
      IA.renderTable(InteractionAnalysis::TableKind::Disabling);
  EXPECT_EQ(cell(Dis, A, B, false), "1.00"); // b always disables a.
  EXPECT_EQ(cell(Dis, B, C, false), "0.33"); // c disables b 1/3 of mass.
  // a ran while c was active (root a-edge) and left it active: 0.00.
  EXPECT_EQ(cell(Dis, C, A, false), "0.00");
  EXPECT_EQ(cell(Dis, A, A, false), "");

  std::string Ind =
      IA.renderTable(InteractionAnalysis::TableKind::Independence);
  // a/c are fully independent: probability 1.0 > 0.995 renders blank
  // (the paper's convention); b/c met and always conflicted: 0.00.
  EXPECT_EQ(cell(Ind, A, C, false), "");
  EXPECT_EQ(cell(Ind, B, C, false), "0.00");
}

TEST(Interaction, RealEnumerationHasSaneProbabilities) {
  Module M = compileOrDie(
      "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}");
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  EnumerationResult R = E.enumerate(functionNamed(M, "f"));
  ASSERT_TRUE(R.complete());
  InteractionAnalysis IA;
  IA.addFunction(R);
  for (int Y = 0; Y != NumPhases; ++Y)
    for (int X = 0; X != NumPhases; ++X) {
      double En = IA.enabling(phaseByIndex(Y), phaseByIndex(X));
      double Dis = IA.disabling(phaseByIndex(Y), phaseByIndex(X));
      double Ind = IA.independence(phaseByIndex(Y), phaseByIndex(X));
      EXPECT_GE(En, 0.0);
      EXPECT_LE(En, 1.0);
      EXPECT_GE(Dis, 0.0);
      EXPECT_LE(Dis, 1.0);
      EXPECT_GE(Ind, 0.0);
      EXPECT_LE(Ind, 1.0);
      EXPECT_DOUBLE_EQ(Ind, IA.independence(phaseByIndex(X),
                                            phaseByIndex(Y)));
    }
  // Instruction selection is always active initially on naive code.
  EXPECT_DOUBLE_EQ(IA.startProbability(PhaseId::InstructionSelection), 1.0);
  // Register allocation requires instruction selection first: dormant at
  // the start (the paper's VPO observation, reproduced organically).
  EXPECT_DOUBLE_EQ(IA.startProbability(PhaseId::RegisterAllocation), 0.0);
}

TEST(Interaction, AlwaysIndependentRequiresObservations) {
  InteractionAnalysis Empty;
  EXPECT_FALSE(Empty.alwaysIndependent(PhaseId::BranchChaining,
                                       PhaseId::Cse));
}

} // namespace
