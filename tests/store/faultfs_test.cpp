//===- faultfs_test.cpp - Fault-injected store I/O property tests --------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The store's crash-consistency contract under injected I/O failure:
// for EVERY fault kind at EVERY operation index of a store write, the
// artifact on disk afterwards is either the old one (byte-identical,
// still loadable) or none — never a torn or half-committed file a later
// reader could trust. And the detection side of the same coin: fsck must
// flag every single-byte corruption of every artifact kind, which is
// what the frame's header CRC (format v4) exists to guarantee.
//
//===----------------------------------------------------------------------===//

#include "src/support/FaultFs.h"

#include "src/core/Canonical.h"
#include "src/core/Enumerator.h"
#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/sem/Equivalence.h"
#include "src/store/ArtifactStore.h"
#include "src/store/StoreAdmin.h"
#include "tests/common/Helpers.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace pose;
using namespace pose::store;
using namespace pose::testhelpers;

namespace {

const char *SumSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "pose-faultfs-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// A finished enumeration of the loop function, the partial result of a
/// run stopped mid-flight, a hand-built quarantine record and an
/// equivalence record — one artifact of every kind, and the partial result
/// a final one replaces, under one (root, fingerprint) key.
struct Artifacts {
  Module M;
  EnumerationResult Res;
  EnumerationResult Partial;
  QuarantineRecord Q;
  sem::EquivRecord Eq;
  HashTriple Root;
  uint64_t Fp = 0;

  Artifacts() : M(compileOrDie(SumSource)) {
    PhaseManager PM;
    EnumeratorConfig Cfg;
    Function &F = functionNamed(M, "f");
    {
      Enumerator E(PM, Cfg);
      Res = E.enumerate(F);
    }
    Eq = sem::computeEquivalence(M, F, PM, Res, sem::EquivInputs());
    {
      EnumeratorConfig Tight = Cfg;
      Tight.MaxMemoryBytes = 20'000;
      Partial = Enumerator(PM, Tight).enumerate(F);
    }
    Q.Failure = WorkerFailure::Signal;
    Q.Signal = 11;
    Q.Attempts = 3;
    Q.Message = "worker died with signal 11";
    Root = canonicalize(F, false, Cfg.RemapRegisters).Hash;
    Fp = configFingerprint(Cfg);
  }
};

Artifacts &artifacts() {
  static Artifacts A;
  EXPECT_TRUE(isResumableStop(A.Partial.Stop));
  return A;
}

/// Saves the artifact of \p Kind through \p Store; returns success. \p Old
/// saves the partial result in place of the final one, as the earlier
/// artifact a final result replaces.
bool saveKind(const ArtifactStore &Store, const Artifacts &A,
              ArtifactKind Kind, std::string &Error, bool Old = false) {
  switch (Kind) {
  case ArtifactKind::Result:
    return Store.saveResult(A.Root, A.Fp, Old ? A.Partial : A.Res, Error);
  case ArtifactKind::Quarantine:
    return Store.saveQuarantine(A.Root, A.Fp, A.Q, Error);
  case ArtifactKind::Equivalence:
    return Store.saveEquivalence(A.Root, A.Fp, A.Eq, Error);
  }
  return false;
}

/// Loads the artifact of \p Kind; returns the status.
LoadStatus loadKind(const ArtifactStore &Store, const Artifacts &A,
                    ArtifactKind Kind, std::string &Error) {
  switch (Kind) {
  case ArtifactKind::Result: {
    EnumerationResult R;
    return Store.loadResult(A.Root, A.Fp, R, Error);
  }
  case ArtifactKind::Quarantine: {
    QuarantineRecord Q;
    return Store.loadQuarantine(A.Root, A.Fp, Q, Error);
  }
  case ArtifactKind::Equivalence: {
    sem::EquivRecord E;
    return Store.loadEquivalence(A.Root, A.Fp, E, Error);
  }
  }
  return LoadStatus::Miss;
}

constexpr ArtifactKind AllKinds[] = {
    ArtifactKind::Result, ArtifactKind::Quarantine, ArtifactKind::Equivalence};

TEST(IoFaultSpecParse, AcceptsEveryKindAndLists) {
  std::vector<IoFaultSpec> Out;
  ASSERT_TRUE(IoFaultSpec::parse("shortwrite:1", Out));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Kind, IoFaultKind::ShortWrite);
  EXPECT_EQ(Out[0].Nth, 1u);

  ASSERT_TRUE(
      IoFaultSpec::parse("enospc:2,eio:3,crash-before-rename:1", Out));
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0].Kind, IoFaultKind::Enospc);
  EXPECT_EQ(Out[1].Kind, IoFaultKind::Eio);
  EXPECT_EQ(Out[2].Kind, IoFaultKind::CrashBeforeRename);
  EXPECT_EQ(Out[2].Nth, 1u);

  ASSERT_TRUE(IoFaultSpec::parse("crash-after-rename:7", Out));
  EXPECT_EQ(Out[0].Kind, IoFaultKind::CrashAfterRename);
  EXPECT_EQ(Out[0].Nth, 7u);
}

TEST(IoFaultSpecParse, RejectsMalformedSpecs) {
  std::vector<IoFaultSpec> Out;
  EXPECT_FALSE(IoFaultSpec::parse("", Out));
  EXPECT_FALSE(IoFaultSpec::parse("enospc", Out));         // No index.
  EXPECT_FALSE(IoFaultSpec::parse("enospc:", Out));        // Empty index.
  EXPECT_FALSE(IoFaultSpec::parse("enospc:0", Out));       // Zero index.
  EXPECT_FALSE(IoFaultSpec::parse("enospc:x", Out));       // Non-digit.
  EXPECT_FALSE(IoFaultSpec::parse("enospc:1x", Out));      // Trailing junk.
  EXPECT_FALSE(IoFaultSpec::parse("diskfire:1", Out));     // Unknown kind.
  EXPECT_FALSE(IoFaultSpec::parse("enospc:1,", Out));      // Empty item.
  EXPECT_FALSE(IoFaultSpec::parse(",enospc:1", Out));      // Empty item.
  EXPECT_FALSE(IoFaultSpec::parse(":3", Out));             // No kind.
  EXPECT_FALSE(
      IoFaultSpec::parse("enospc:99999999999999999999", Out)); // Overflow.
  EXPECT_FALSE(
      IoFaultSpec::parse("enospc:18446744073709551616", Out)); // 2^64.
  ASSERT_TRUE(IoFaultSpec::parse("enospc:18446744073709551615", Out));
  EXPECT_EQ(Out[0].Nth, UINT64_MAX);
}

// The tentpole property: every fault kind, at every operation index a
// store write performs, leaves old-or-none — the prior artifact intact
// and loadable, or no artifact and no stray temp file. Every scenario is
// run twice: once against an empty store ("none" must hold) and once
// over a pre-existing artifact ("old" must survive byte-identically).
TEST(FaultFsProperty, EveryFaultAtEveryOpIndexLeavesOldOrNone) {
  Artifacts &A = artifacts();

  // A store write is one writeFile + one rename; saveResult additionally
  // removes sibling artifacts afterwards. Indices beyond the op count
  // simply never fire, which the clean-pass check at the end covers.
  const IoFaultKind WriteFaults[] = {IoFaultKind::ShortWrite,
                                     IoFaultKind::Enospc, IoFaultKind::Eio};

  for (ArtifactKind Kind : AllKinds) {
    const std::string KindTag = artifactKindName(Kind);
    for (bool PreExisting : {false, true}) {
      // --- Write-class faults (fail the temp-file write). ---
      for (IoFaultKind WF : WriteFaults) {
        const std::string Tag = KindTag + std::string("-") +
                                ioFaultKindName(WF) +
                                (PreExisting ? "-old" : "-empty");
        const std::string Dir = freshDir(Tag);
        std::string Error;
        std::vector<uint8_t> OldBytes;
        {
          ArtifactStore Plain(Dir, &StoreIo::system());
          ASSERT_TRUE(Plain.prepare(Error)) << Error;
          if (PreExisting) {
            ASSERT_TRUE(saveKind(Plain, A, Kind, Error, /*Old=*/true))
                << Error;
            OldBytes = readFile(Plain.pathFor(A.Root, Kind));
            ASSERT_FALSE(OldBytes.empty());
          }
        }
        FaultFs Fs({{WF, 1}}, FaultFs::CrashMode::Simulate);
        ArtifactStore Store(Dir, &Fs);
        EXPECT_FALSE(saveKind(Store, A, Kind, Error)) << Tag;
        // The error carries errno context; a short write also reports
        // its byte progress.
        EXPECT_NE(Error.find("errno"), std::string::npos) << Tag << ": "
                                                          << Error;
        if (WF == IoFaultKind::ShortWrite) {
          EXPECT_NE(Error.find(" of "), std::string::npos) << Tag << ": "
                                                           << Error;
        }
        // No torn temp file left behind (the failure path unlinks it).
        EXPECT_TRUE(
            readFile(Store.pathFor(A.Root, Kind) + ".tmp").empty())
            << Tag;
        // Old-or-none on the committed path.
        ArtifactStore Check(Dir, &StoreIo::system());
        if (PreExisting) {
          EXPECT_EQ(readFile(Check.pathFor(A.Root, Kind)), OldBytes) << Tag;
          EXPECT_EQ(loadKind(Check, A, Kind, Error), LoadStatus::Hit)
              << Tag << ": " << Error;
        } else {
          EXPECT_EQ(loadKind(Check, A, Kind, Error), LoadStatus::Miss)
              << Tag;
        }
      }

      // --- Crash before the committing rename. ---
      {
        const std::string Tag =
            KindTag + std::string("-crashbefore") +
            (PreExisting ? "-old" : "-empty");
        const std::string Dir = freshDir(Tag);
        std::string Error;
        std::vector<uint8_t> OldBytes;
        {
          ArtifactStore Plain(Dir, &StoreIo::system());
          ASSERT_TRUE(Plain.prepare(Error)) << Error;
          if (PreExisting) {
            ASSERT_TRUE(saveKind(Plain, A, Kind, Error, /*Old=*/true))
                << Error;
            OldBytes = readFile(Plain.pathFor(A.Root, Kind));
          }
        }
        FaultFs Fs({{IoFaultKind::CrashBeforeRename, 1}},
                   FaultFs::CrashMode::Simulate);
        ArtifactStore Store(Dir, &Fs);
        EXPECT_FALSE(saveKind(Store, A, Kind, Error)) << Tag;
        EXPECT_TRUE(Fs.crashed()) << Tag;
        // The dead process could not clean up: its temp file is orphaned
        // (exactly what --fsck and the supervisor's startup sweep exist
        // for), but the committed artifact is old-or-none.
        EXPECT_FALSE(
            readFile(Store.pathFor(A.Root, Kind) + ".tmp").empty())
            << Tag;
        ArtifactStore Check(Dir, &StoreIo::system());
        if (PreExisting) {
          EXPECT_EQ(readFile(Check.pathFor(A.Root, Kind)), OldBytes) << Tag;
          EXPECT_EQ(loadKind(Check, A, Kind, Error), LoadStatus::Hit)
              << Tag << ": " << Error;
        } else {
          EXPECT_EQ(loadKind(Check, A, Kind, Error), LoadStatus::Miss)
              << Tag;
        }
      }

      // --- Crash after the committing rename: the new artifact is
      // durable even though nothing after the rename ran. ---
      {
        const std::string Tag = KindTag + std::string("-crashafter") +
                                (PreExisting ? "-old" : "-empty");
        const std::string Dir = freshDir(Tag);
        std::string Error;
        {
          ArtifactStore Plain(Dir, &StoreIo::system());
          ASSERT_TRUE(Plain.prepare(Error)) << Error;
          if (PreExisting) {
            ASSERT_TRUE(saveKind(Plain, A, Kind, Error, /*Old=*/true))
                << Error;
          }
        }
        FaultFs Fs({{IoFaultKind::CrashAfterRename, 1}},
                   FaultFs::CrashMode::Simulate);
        ArtifactStore Store(Dir, &Fs);
        // The save itself reports success or failure depending on what
        // ran after the rename; the durable state is what matters.
        saveKind(Store, A, Kind, Error);
        EXPECT_TRUE(Fs.crashed()) << Tag;
        ArtifactStore Check(Dir, &StoreIo::system());
        EXPECT_EQ(loadKind(Check, A, Kind, Error), LoadStatus::Hit)
            << Tag << ": " << Error;
      }
    }
  }
}

TEST(FaultFsProperty, FaultsBeyondTheOpCountNeverFire) {
  Artifacts &A = artifacts();
  const std::string Dir = freshDir("beyond");
  // One save is one write and one rename; index 5 never fires, so the
  // write must succeed exactly as without the injector.
  FaultFs Fs({{IoFaultKind::Enospc, 5}, {IoFaultKind::CrashBeforeRename, 5}},
             FaultFs::CrashMode::Simulate);
  ArtifactStore Store(Dir, &Fs);
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveResult(A.Root, A.Fp, A.Res, Error)) << Error;
  EXPECT_FALSE(Fs.crashed());
  EXPECT_EQ(Fs.writeOps(), 1u);
  EXPECT_EQ(Fs.renameOps(), 1u);
  EXPECT_EQ(loadKind(Store, A, ArtifactKind::Result, Error),
            LoadStatus::Hit)
      << Error;
}

TEST(FaultFsProperty, SecondWriteFaultSparesTheFirst) {
  Artifacts &A = artifacts();
  const std::string Dir = freshDir("second");
  FaultFs Fs({{IoFaultKind::Enospc, 2}}, FaultFs::CrashMode::Simulate);
  ArtifactStore Store(Dir, &Fs);
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  // First write (the partial result) succeeds, second (the quarantine
  // record) hits the injected ENOSPC.
  ASSERT_TRUE(Store.saveResult(A.Root, A.Fp, A.Partial, Error)) << Error;
  EXPECT_FALSE(Store.saveQuarantine(A.Root, A.Fp, A.Q, Error));
  EXPECT_NE(Error.find("No space left"), std::string::npos) << Error;
  EXPECT_EQ(loadKind(Store, A, ArtifactKind::Result, Error),
            LoadStatus::Hit)
      << Error;
  EXPECT_EQ(loadKind(Store, A, ArtifactKind::Quarantine, Error),
            LoadStatus::Miss);
}

// The detection property behind format v4's header CRC: flipping ANY
// single byte of ANY artifact kind must be caught by fsck. Without the
// header CRC the config-fingerprint bytes (offsets 28..35) would be
// undetectable — no cross-check covers them and fsck has no expected
// value to compare against.
TEST(FsckDetection, EverySingleByteCorruptionIsDetectedForEveryKind) {
  Artifacts &A = artifacts();
  for (ArtifactKind Kind : AllKinds) {
    const std::string Dir =
        freshDir(std::string("flip-") + artifactKindName(Kind));
    ArtifactStore Store(Dir, &StoreIo::system());
    std::string Error;
    ASSERT_TRUE(Store.prepare(Error)) << Error;
    // The interrupted result: its frontier follows every field a final
    // result has.
    ASSERT_TRUE(saveKind(Store, A, Kind, Error, /*Old=*/true)) << Error;
    const std::string Path = Store.pathFor(A.Root, Kind);
    const std::vector<uint8_t> Pristine = readFile(Path);
    ASSERT_FALSE(Pristine.empty());
    ASSERT_TRUE(fsckStore(Dir, false).clean());

    for (size_t I = 0; I != Pristine.size(); ++I) {
      std::vector<uint8_t> Bad = Pristine;
      Bad[I] ^= 0xFF;
      writeFile(Path, Bad);
      const FsckReport R = fsckStore(Dir, false);
      EXPECT_FALSE(R.clean())
          << artifactKindName(Kind) << ": flipped byte " << I << " of "
          << Pristine.size() << " escaped fsck";
      if (R.clean())
        break; // One detailed failure is enough; don't spam 5000 more.
    }
    writeFile(Path, Pristine);
    EXPECT_TRUE(fsckStore(Dir, false).clean());
  }
}

TEST(FsckDetection, TruncationAtEveryLengthIsDetected) {
  Artifacts &A = artifacts();
  const std::string Dir = freshDir("truncate");
  ArtifactStore Store(Dir, &StoreIo::system());
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveQuarantine(A.Root, A.Fp, A.Q, Error)) << Error;
  const std::string Path = Store.pathFor(A.Root, ArtifactKind::Quarantine);
  const std::vector<uint8_t> Pristine = readFile(Path);
  for (size_t Len = 0; Len != Pristine.size(); ++Len) {
    writeFile(Path, std::vector<uint8_t>(Pristine.begin(),
                                         Pristine.begin() + Len));
    const FsckReport R = fsckStore(Dir, false);
    EXPECT_FALSE(R.clean()) << "length " << Len;
    if (R.clean())
      break;
  }
}

} // namespace
