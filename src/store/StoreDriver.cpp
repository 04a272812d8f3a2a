//===- StoreDriver.cpp - Store-backed enumeration driver ------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/store/StoreDriver.h"

namespace pose {
namespace store {

DriveResult driveEnumeration(const PhaseManager &PM,
                             const EnumeratorConfig &Config,
                             const Function &Root,
                             const std::string &StoreDir) {
  DriveResult D;
  // The cache key must equal node 0's hash, so canonicalize exactly the
  // way the enumerator interns the root.
  D.Root = canonicalize(Root, false, Config.RemapRegisters).Hash;

  ArtifactStore Store(StoreDir);
  if (!Store.prepare(D.Error))
    return D;
  const uint64_t Fp = configFingerprint(Config);

  std::string Note;
  EnumerationResult Stored;
  const LoadStatus S = Store.loadResult(D.Root, Fp, Stored, Note);
  if (S == LoadStatus::Rejected)
    D.RejectionNotes.push_back(Note);
  Enumerator E(PM, Config);
  if (S != LoadStatus::Hit) {
    D.Result = E.enumerate(Root);
  } else if (isResumableStop(Stored.Stop)) {
    D.Result = E.resume(Root, std::move(Stored));
    D.Source = DriveSource::Resumed;
  } else {
    D.Result = std::move(Stored);
    D.Source = DriveSource::Cached;
    D.Ok = true;
    return D;
  }

  if (!Store.saveResult(D.Root, Fp, D.Result, D.Error))
    return D;
  D.Ok = true;
  return D;
}

} // namespace store
} // namespace pose
