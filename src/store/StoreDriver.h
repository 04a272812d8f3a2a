//===- StoreDriver.h - Store-backed enumeration driver ---------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one entry point tools use to enumerate *through* the artifact
/// store: reuse a stored final DAG, otherwise continue a stored
/// interrupted one from its frontier, otherwise enumerate from scratch —
/// and persist whatever the run produced, final or interrupted again, for
/// the next run. Downstream consumers (interaction mining, the
/// probabilistic compiler, DOT export) call this instead of
/// Enumerator::enumerate and become restartable for free.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_STORE_STOREDRIVER_H
#define POSE_STORE_STOREDRIVER_H

#include "src/store/ArtifactStore.h"

#include <string>

namespace pose {

class PhaseManager;

namespace store {

/// How DriveResult.Result was obtained.
enum class DriveSource {
  Cached,   ///< Loaded from a stored final result; no enumeration ran.
  Resumed,  ///< Continued from a stored interrupted result.
  Fresh,    ///< Enumerated from scratch.
};

/// Outcome of one store-backed enumeration.
struct DriveResult {
  bool Ok = false;          ///< False only on store I/O failure.
  std::string Error;        ///< Set when !Ok.
  EnumerationResult Result; ///< The (possibly partial) DAG.
  DriveSource Source = DriveSource::Fresh;
  /// The cache key used (canonical triple of the unoptimized function).
  HashTriple Root;
  /// Validation diagnostics for artifacts that were found but rejected
  /// (stale version, wrong fingerprint, corruption). The run proceeds
  /// without them; these are surfaced so the rejection is never silent.
  std::vector<std::string> RejectionNotes;
};

/// Enumerates \p Root through the store at \p StoreDir.
DriveResult driveEnumeration(const PhaseManager &PM,
                             const EnumeratorConfig &Config,
                             const Function &Root,
                             const std::string &StoreDir);

} // namespace store
} // namespace pose

#endif // POSE_STORE_STOREDRIVER_H
