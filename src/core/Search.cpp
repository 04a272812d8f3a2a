//===- Search.cpp - Heuristic phase-sequence searches -------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/Search.h"

#include "src/core/Canonical.h"
#include "src/opt/PhaseManager.h"
#include "src/sim/Interpreter.h"
#include "src/support/Rng.h"

#include <algorithm>
#include <unordered_map>

using namespace pose;

/// Applies attempted sequences and computes (cached) fitness values.
class SequenceSearch::Evaluator {
public:
  Evaluator(const SequenceSearch &Owner, const Function &Root,
            Objective Obj)
      : Owner(Owner), Root(Root), Obj(Obj) {}

  /// Fitness of one attempted sequence (gene = phase index). Smaller is
  /// better; UINT64_MAX marks failed simulation.
  uint64_t fitness(const std::vector<int> &Genes, SearchResult &Stats) {
    Function F = Root;
    std::string Active;
    int Prev = -1;
    for (int G : Genes) {
      PhaseId P = phaseByIndex(G);
      if (G == Prev || !Owner.PM.isLegal(P, F))
        continue;
      ++Stats.PhaseAttempts;
      if (Owner.PM.attempt(P, F)) {
        Active += phaseCode(P);
        Prev = G;
      }
    }
    // Reference [14]: a sequence reaching an instance already measured
    // reuses its fitness instead of being evaluated again.
    HashTriple H = canonicalize(F).Hash;
    auto It = Cache.find(H);
    if (It != Cache.end()) {
      ++Stats.CacheHits;
      noteBest(It->second, Active, F, Stats);
      return It->second;
    }
    ++Stats.Evaluations;
    uint64_t Fit = measure(F);
    Cache.emplace(H, Fit);
    noteBest(Fit, Active, F, Stats);
    return Fit;
  }

private:
  const SequenceSearch &Owner;
  const Function &Root;
  Objective Obj;
  std::unordered_map<HashTriple, uint64_t, HashTripleHasher> Cache;

  uint64_t measure(const Function &F) {
    if (Obj == Objective::CodeSize)
      return F.instructionCount();
    Interpreter Sim(Owner.M);
    Sim.overrideFunction(Root.Name, &F);
    RunResult R = Sim.run(Owner.Entry, {});
    return R.Ok ? R.DynamicInsts : UINT64_MAX;
  }

  void noteBest(uint64_t Fit, const std::string &Active, const Function &F,
                SearchResult &Stats) {
    if (Fit < Stats.BestFitness) {
      Stats.BestFitness = Fit;
      Stats.BestSequence = Active;
      Stats.BestInstance = F;
    }
  }
};

namespace {

/// Attempted sequence length (the GA chromosome length). The paper's
/// batch compiler actively applies ~9 phases; attempted sequences need
/// slack for dormant genes.
constexpr int SequenceLength = 16;
/// Per-gene mutation probability, in ten-thousandths (0.05).
constexpr uint64_t MutationPer10k = 500;

/// Arms the search governor from the config's stop token.
ResourceGovernor makeGovernor(const SearchConfig &Config) {
  ResourceGovernor Gov;
  Gov.setStopToken(Config.Stop);
  return Gov;
}

} // namespace

SequenceSearch::SequenceSearch(const PhaseManager &PM, const Module &M,
                               std::string Entry)
    : PM(PM), M(M), Entry(std::move(Entry)) {}

SearchResult SequenceSearch::geneticSearch(const Function &Root,
                                           Objective Obj,
                                           const SearchConfig &Config) const {
  SearchResult Stats;
  Stats.BestInstance = Root;
  Evaluator Eval(*this, Root, Obj);
  ResourceGovernor Gov = makeGovernor(Config);
  Rng R(Config.Seed);

  const int Len = SequenceLength;
  const int Pop = std::max(4, Config.PopulationSize);
  std::vector<std::vector<int>> Population(Pop, std::vector<int>(Len));
  for (auto &Genes : Population)
    for (int &G : Genes)
      G = static_cast<int>(R.below(NumPhases));

  std::vector<uint64_t> Fit(Pop);
  for (int Gen = 0; Gen != Config.Generations; ++Gen) {
    for (int I = 0; I != Pop; ++I) {
      if ((Stats.Stop = Gov.check()) != StopReason::Complete)
        return Stats;
      Fit[I] = Eval.fitness(Population[I], Stats);
    }

    // Rank; elitism keeps the top half, crossover refills the rest.
    std::vector<int> Order(Pop);
    for (int I = 0; I != Pop; ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(),
              [&Fit](int A, int B) { return Fit[A] < Fit[B]; });
    std::vector<std::vector<int>> Next;
    Next.reserve(Pop);
    const int Elite = Pop / 2;
    for (int I = 0; I != Elite; ++I)
      Next.push_back(Population[Order[I]]);
    while (static_cast<int>(Next.size()) < Pop) {
      const auto &A = Population[Order[R.below(Elite)]];
      const auto &B = Population[Order[R.below(Elite)]];
      std::vector<int> Child(Len);
      size_t Cut = 1 + R.below(static_cast<uint64_t>(Len - 1));
      for (int I = 0; I != Len; ++I)
        Child[I] = static_cast<size_t>(I) < Cut ? A[I] : B[I];
      for (int &G : Child)
        if (R.below(10'000) < MutationPer10k)
          G = static_cast<int>(R.below(NumPhases));
      Next.push_back(std::move(Child));
    }
    Population = std::move(Next);
  }
  // Final evaluation of the last generation.
  for (auto &Genes : Population) {
    if ((Stats.Stop = Gov.check()) != StopReason::Complete)
      return Stats;
    Eval.fitness(Genes, Stats);
  }
  return Stats;
}

SearchResult SequenceSearch::hillClimb(const Function &Root, Objective Obj,
                                       const SearchConfig &Config) const {
  SearchResult Stats;
  Stats.BestInstance = Root;
  Evaluator Eval(*this, Root, Obj);
  ResourceGovernor Gov = makeGovernor(Config);
  Rng R(Config.Seed);

  const int Len = SequenceLength;
  std::vector<int> Current(Len);
  for (int &G : Current)
    G = static_cast<int>(R.below(NumPhases));
  uint64_t CurrentFit = Eval.fitness(Current, Stats);

  bool Improved = true;
  while (Improved && Stats.Evaluations < Config.MaxEvaluations) {
    Improved = false;
    // Steepest ascent over the 1-change neighborhood.
    std::vector<int> BestNeighbor;
    uint64_t BestFit = CurrentFit;
    for (int Pos = 0; Pos != Len; ++Pos) {
      for (int G = 0; G != NumPhases; ++G) {
        if (G == Current[Pos])
          continue;
        if ((Stats.Stop = Gov.check()) != StopReason::Complete)
          return Stats;
        std::vector<int> Neighbor = Current;
        Neighbor[Pos] = G;
        uint64_t F = Eval.fitness(Neighbor, Stats);
        if (F < BestFit) {
          BestFit = F;
          BestNeighbor = std::move(Neighbor);
        }
        if (Stats.Evaluations >= Config.MaxEvaluations)
          break;
      }
      if (Stats.Evaluations >= Config.MaxEvaluations)
        break;
    }
    if (!BestNeighbor.empty()) {
      Current = std::move(BestNeighbor);
      CurrentFit = BestFit;
      Improved = true;
    }
  }
  return Stats;
}

SearchResult SequenceSearch::randomSearch(const Function &Root,
                                          Objective Obj,
                                          const SearchConfig &Config) const {
  SearchResult Stats;
  Stats.BestInstance = Root;
  Evaluator Eval(*this, Root, Obj);
  ResourceGovernor Gov = makeGovernor(Config);
  Rng R(Config.Seed);
  const int Len = SequenceLength;
  while (Stats.Evaluations < Config.MaxEvaluations) {
    if ((Stats.Stop = Gov.check()) != StopReason::Complete)
      return Stats;
    std::vector<int> Genes(Len);
    for (int &G : Genes)
      G = static_cast<int>(R.below(NumPhases));
    uint64_t Before = Stats.Evaluations;
    Eval.fitness(Genes, Stats);
    // All-duplicate batches still make progress through the cache-hit
    // counter; bail out if nothing new was evaluated for a long time.
    if (Stats.Evaluations == Before &&
        Stats.CacheHits > 4 * Config.MaxEvaluations)
      break;
  }
  return Stats;
}
