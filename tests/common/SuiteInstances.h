//===- SuiteInstances.h - Every instance of the capped suite spaces -*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef POSE_TESTS_COMMON_SUITEINSTANCES_H
#define POSE_TESTS_COMMON_SUITEINSTANCES_H

#include "src/core/DagPaths.h"
#include "src/core/Enumerator.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <functional>
#include <string>

namespace pose {
namespace testhelpers {

/// Calls \p Fn on every instance of every workload function's space,
/// under budgets that complete the small spaces and cap the large ones.
/// The key names the function and node ("bitcount/main node 7").
inline void forEachSuiteInstance(
    const PhaseManager &PM,
    const std::function<void(const std::string &, const Function &)> &Fn) {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 1'000;
  Cfg.MaxTotalNodes = 8'000;
  Enumerator E(PM, Cfg);
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (const Function &F : M.Functions) {
      const std::string Key = std::string(W.Name) + "/" + F.Name;
      DagPaths(E.enumerate(F))
          .forEachInstance(F, PM, nullptr,
                           [&](uint32_t Id, const Function &Inst) {
                             Fn(Key + " node " + std::to_string(Id), Inst);
                           });
    }
  }
}

} // namespace testhelpers
} // namespace pose

#endif // POSE_TESTS_COMMON_SUITEINSTANCES_H
