//===- Search.h - Heuristic phase-sequence searches -------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Non-exhaustive searches of the phase order space: a genetic algorithm,
/// a hill climber, and uniform random sampling. These are the baselines
/// the paper positions itself against (Section 2: genetic algorithms [3,
/// 4], hill climbing [9, 5]) and proposes to improve (Section 7: use the
/// redundancy-detection hashes to make GA searches faster [14]).
///
/// All searchers share a fitness evaluator that applies an attempted
/// phase sequence, then measures either static code size or whole-program
/// dynamic instruction count. The evaluator deduplicates by canonical
/// instance hash — the technique of the paper's reference [14]: sequences
/// that produce an already-seen instance are not re-evaluated (for
/// dynamic counts, not re-simulated).
///
//===----------------------------------------------------------------------===//

#ifndef POSE_CORE_SEARCH_H
#define POSE_CORE_SEARCH_H

#include "src/ir/Function.h"
#include "src/opt/Phase.h"
#include "src/support/StopToken.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pose {

class Module;
class PhaseManager;

/// What a search minimizes.
enum class Objective : uint8_t {
  CodeSize,     ///< Static instruction count of the instance.
  DynamicCount, ///< Whole-program dynamic instructions running Entry.
};

/// Search tuning knobs.
struct SearchConfig {
  uint64_t Seed = 1;
  int PopulationSize = 20;
  int Generations = 25;
  /// Evaluation budget for random search and the hill climber.
  uint64_t MaxEvaluations = 500;
  /// Cooperative cancellation (not owned; may be nullptr). Checked
  /// between fitness evaluations.
  const StopToken *Stop = nullptr;
};

/// Outcome of one search.
struct SearchResult {
  uint64_t BestFitness = UINT64_MAX;
  std::string BestSequence; ///< Active phases of the best sequence found.
  Function BestInstance;
  uint64_t Evaluations = 0; ///< Distinct fitness evaluations performed.
  uint64_t CacheHits = 0;   ///< Evaluations avoided by hash dedup.
  uint64_t PhaseAttempts = 0;
  /// Complete when the strategy ran to its natural end; Cancelled when
  /// the stop token stopped it early. The best-so-far
  /// fields above stay valid either way.
  StopReason Stop = StopReason::Complete;
};

/// Shared driver for the three search strategies.
class SequenceSearch {
public:
  /// \p M is the surrounding program (for dynamic-count fitness; the
  /// entry function \p Entry is simulated). The module is not modified.
  SequenceSearch(const PhaseManager &PM, const Module &M,
                 std::string Entry);

  SearchResult geneticSearch(const Function &Root, Objective Obj,
                             const SearchConfig &Config) const;
  SearchResult hillClimb(const Function &Root, Objective Obj,
                         const SearchConfig &Config) const;
  SearchResult randomSearch(const Function &Root, Objective Obj,
                            const SearchConfig &Config) const;

private:
  const PhaseManager &PM;
  const Module &M;
  std::string Entry;

  class Evaluator;
};

} // namespace pose

#endif // POSE_CORE_SEARCH_H
