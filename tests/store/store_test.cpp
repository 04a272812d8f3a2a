//===- store_test.cpp - Artifact store validation tests ------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The store's contract is that a lookup never silently returns a stale or
// damaged artifact: a hit is a validated hit, everything else is a miss or
// an explicit rejection naming what mismatched. This suite attacks every
// frame field — magic, version, kind, root key, config fingerprint,
// payload length, checksum — plus payload truncation and bit flips.
//
//===----------------------------------------------------------------------===//

#include "src/store/ArtifactStore.h"

#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "tests/common/Helpers.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace pose;
using namespace pose::store;
using namespace pose::testhelpers;

namespace {

const char *SumSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

/// Fresh store directory per test, under the gtest temp dir.
std::string freshDir(const char *Name) {
  std::string Dir = ::testing::TempDir() + "pose-store-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

struct Fixture {
  Module M;
  EnumerationResult Res;
  HashTriple Root;
  uint64_t Fp = 0;
  EnumeratorConfig Cfg;

  Fixture() : M(compileOrDie(SumSource)) {
    PhaseManager PM;
    Enumerator E(PM, Cfg);
    Function &F = functionNamed(M, "f");
    Res = E.enumerate(F);
    Root = canonicalize(F, false, Cfg.RemapRegisters).Hash;
    Fp = configFingerprint(Cfg);
  }
};

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

TEST(ArtifactStore, SaveAndLoadResult) {
  Fixture FX;
  ArtifactStore Store(freshDir("roundtrip"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveResult(FX.Root, FX.Fp, FX.Res, Error)) << Error;

  EnumerationResult Out;
  EXPECT_EQ(Store.loadResult(FX.Root, FX.Fp, Out, Error), LoadStatus::Hit)
      << Error;
  EXPECT_EQ(Out.Nodes.size(), FX.Res.Nodes.size());
  EXPECT_EQ(Out.Stop, FX.Res.Stop);
}

TEST(ArtifactStore, MissingArtifactIsAMissNotAnError) {
  Fixture FX;
  ArtifactStore Store(freshDir("miss"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  EnumerationResult Out;
  EXPECT_EQ(Store.loadResult(FX.Root, FX.Fp, Out, Error), LoadStatus::Miss);
  QuarantineRecord Q;
  EXPECT_EQ(Store.loadQuarantine(FX.Root, FX.Fp, Q, Error), LoadStatus::Miss);
}

TEST(ArtifactStore, WrongFingerprintRejectedWithDiagnostic) {
  Fixture FX;
  ArtifactStore Store(freshDir("fingerprint"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveResult(FX.Root, FX.Fp, FX.Res, Error)) << Error;

  // The same artifact looked up under a different configuration: stale,
  // must be rejected with a configuration diagnostic, never reused.
  EnumeratorConfig Other = FX.Cfg;
  Other.MaxLevelSequences += 1;
  EnumerationResult Out;
  EXPECT_EQ(Store.loadResult(FX.Root, configFingerprint(Other), Out, Error),
            LoadStatus::Rejected);
  EXPECT_NE(Error.find("configuration"), std::string::npos) << Error;
}

TEST(ArtifactStore, ExecutionOnlyKnobsShareAFingerprint) {
  // Jobs, deadline, memory budget and the stop token do not shape the
  // DAG; artifacts must be shared across them (that is what makes a
  // result interrupted at jobs=1 resumable under jobs=4).
  EnumeratorConfig A;
  EnumeratorConfig B;
  B.Jobs = 8;
  B.DeadlineMs = 123;
  B.MaxMemoryBytes = 1 << 20;
  StopToken T;
  B.Stop = &T;
  EXPECT_EQ(configFingerprint(A), configFingerprint(B));

  EnumeratorConfig C;
  C.MaxTotalNodes -= 1;
  EXPECT_NE(configFingerprint(A), configFingerprint(C));
  EnumeratorConfig D;
  D.VerifyIr = true;
  EXPECT_NE(configFingerprint(A), configFingerprint(D));
  EnumeratorConfig E;
  FaultPlan Plan;
  ASSERT_TRUE(FaultPlan::parse("c:3", Plan));
  E.Faults = &Plan;
  EXPECT_NE(configFingerprint(A), configFingerprint(E));
}

TEST(ArtifactStore, CrashClassFaultsShareAFingerprint) {
  // Crash faults kill the worker process; they never shape a persisted
  // DAG. Results, partial ones included, and quarantine records must be
  // shared between a faulty worker and a clean retry — that is what lets a
  // supervised retry resume the crashed worker's partial DAG, and a clean
  // sweep reuse a previously-faulted function's result.
  EnumeratorConfig A;
  EnumeratorConfig B;
  FaultPlan Crash;
  ASSERT_TRUE(FaultPlan::parse("c:3:segv", Crash));
  B.Faults = &Crash;
  EXPECT_EQ(configFingerprint(A), configFingerprint(B));

  // Verifier faults DO shape the DAG (rejected instances) and stay in
  // the fingerprint; a mixed plan is therefore still distinguishing.
  EnumeratorConfig C;
  FaultPlan Mixed;
  ASSERT_TRUE(FaultPlan::parse("c:3,d:1:kill", Mixed));
  C.Faults = &Mixed;
  EXPECT_NE(configFingerprint(A), configFingerprint(C));
}

TEST(ArtifactStore, QuarantineLifecycle) {
  Fixture FX;
  ArtifactStore Store(freshDir("quarantine"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;

  QuarantineRecord Q;
  Q.Failure = WorkerFailure::Signal;
  Q.Signal = 11;
  Q.Attempts = 3;
  Q.Message = "worker died with signal 11";
  ASSERT_TRUE(Store.saveQuarantine(FX.Root, FX.Fp, Q, Error)) << Error;

  QuarantineRecord Out;
  EXPECT_EQ(Store.loadQuarantine(FX.Root, FX.Fp, Out, Error),
            LoadStatus::Hit)
      << Error;
  EXPECT_EQ(Out.Failure, WorkerFailure::Signal);
  EXPECT_EQ(Out.Signal, 11);
  EXPECT_EQ(Out.Attempts, 3u);
  EXPECT_EQ(Out.Message, Q.Message);

  // A different configuration is a different job: its quarantine state
  // is independent, and a stale record is rejected, never reused.
  EXPECT_EQ(Store.loadQuarantine(FX.Root, FX.Fp + 1, Out, Error),
            LoadStatus::Rejected);

  Store.removeQuarantine(FX.Root);
  EXPECT_EQ(Store.loadQuarantine(FX.Root, FX.Fp, Out, Error),
            LoadStatus::Miss);
  // Removing an absent record is a no-op, not an error.
  Store.removeQuarantine(FX.Root);
}

TEST(ArtifactStore, SavingAResultClearsTheQuarantine) {
  // A completed result proves the job is healthy; a lingering quarantine
  // record would wrongly make later sweeps skip a function whose answer
  // is sitting right next to it.
  Fixture FX;
  ArtifactStore Store(freshDir("quarantine-clear"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;

  QuarantineRecord Q;
  Q.Failure = WorkerFailure::Timeout;
  Q.Attempts = 2;
  ASSERT_TRUE(Store.saveQuarantine(FX.Root, FX.Fp, Q, Error)) << Error;
  ASSERT_TRUE(Store.saveResult(FX.Root, FX.Fp, FX.Res, Error)) << Error;

  QuarantineRecord Out;
  EXPECT_EQ(Store.loadQuarantine(FX.Root, FX.Fp, Out, Error),
            LoadStatus::Miss);
  EnumerationResult Res;
  EXPECT_EQ(Store.loadResult(FX.Root, FX.Fp, Res, Error), LoadStatus::Hit)
      << Error;
}

TEST(ArtifactStore, EveryCorruptedByteRejected) {
  Fixture FX;
  ArtifactStore Store(freshDir("corrupt"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveResult(FX.Root, FX.Fp, FX.Res, Error)) << Error;
  const std::string Path = Store.pathFor(FX.Root, ArtifactKind::Result);
  const std::vector<uint8_t> Good = readFile(Path);
  ASSERT_FALSE(Good.empty());

  // Flip one byte at a time across the whole file (capped stride keeps
  // the test fast on big artifacts): no flip may produce a Hit.
  const size_t Stride = std::max<size_t>(1, Good.size() / 512);
  for (size_t I = 0; I < Good.size(); I += Stride) {
    std::vector<uint8_t> Bad = Good;
    Bad[I] ^= 0x01;
    writeFile(Path, Bad);
    EnumerationResult Out;
    EXPECT_EQ(Store.loadResult(FX.Root, FX.Fp, Out, Error),
              LoadStatus::Rejected)
        << "flipped byte " << I;
  }
  writeFile(Path, Good);
  EnumerationResult Out;
  EXPECT_EQ(Store.loadResult(FX.Root, FX.Fp, Out, Error), LoadStatus::Hit);
}

TEST(ArtifactStore, TruncatedFileRejected) {
  Fixture FX;
  ArtifactStore Store(freshDir("truncate"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveResult(FX.Root, FX.Fp, FX.Res, Error)) << Error;
  const std::string Path = Store.pathFor(FX.Root, ArtifactKind::Result);
  const std::vector<uint8_t> Good = readFile(Path);

  for (size_t Len : {size_t{0}, size_t{7}, size_t{20}, Good.size() / 2,
                     Good.size() - 1}) {
    writeFile(Path, std::vector<uint8_t>(Good.begin(), Good.begin() + Len));
    EnumerationResult Out;
    EXPECT_EQ(Store.loadResult(FX.Root, FX.Fp, Out, Error),
              LoadStatus::Rejected)
        << "truncated to " << Len;
  }
}

TEST(ArtifactStore, FutureFormatVersionRejected) {
  Fixture FX;
  ArtifactStore Store(freshDir("version"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveResult(FX.Root, FX.Fp, FX.Res, Error)) << Error;
  const std::string Path = Store.pathFor(FX.Root, ArtifactKind::Result);
  const std::vector<uint8_t> Saved = readFile(Path);
  // A future version, and the previous one: an artifact written before
  // the last format bump is regenerated, never decoded.
  for (uint32_t Version : {kFormatVersion + 1, kFormatVersion - 1}) {
    std::vector<uint8_t> Bytes = Saved;
    // The version field is the little-endian u32 right after the 8-byte
    // magic.
    Bytes[8] = static_cast<uint8_t>(Version);
    writeFile(Path, Bytes);
    EnumerationResult Out;
    Error.clear();
    EXPECT_EQ(Store.loadResult(FX.Root, FX.Fp, Out, Error),
              LoadStatus::Rejected)
        << "version " << Version;
    EXPECT_NE(Error.find("version"), std::string::npos) << Error;
  }
}

TEST(ArtifactStore, ArtifactForDifferentRootRejected) {
  Fixture FX;
  ArtifactStore Store(freshDir("wrongroot"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  ASSERT_TRUE(Store.saveResult(FX.Root, FX.Fp, FX.Res, Error)) << Error;

  // Simulate a renamed/misplaced file: copy the artifact to the path of a
  // different root. The embedded key must catch it.
  HashTriple Other = FX.Root;
  Other.Crc ^= 0xFFFFFFFF;
  writeFile(Store.pathFor(Other, ArtifactKind::Result),
            readFile(Store.pathFor(FX.Root, ArtifactKind::Result)));
  EnumerationResult Out;
  EXPECT_EQ(Store.loadResult(Other, FX.Fp, Out, Error),
            LoadStatus::Rejected);
  EXPECT_NE(Error.find("different root"), std::string::npos) << Error;
}

TEST(ArtifactStore, KindConfusionRejected) {
  // A quarantine record copied over a result path must not decode as the
  // wrong type.
  Fixture FX;
  ArtifactStore Store(freshDir("kind"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  QuarantineRecord Q;
  Q.Message = "worker died: signal 11";
  ASSERT_TRUE(Store.saveQuarantine(FX.Root, FX.Fp, Q, Error)) << Error;
  writeFile(Store.pathFor(FX.Root, ArtifactKind::Result),
            readFile(Store.pathFor(FX.Root, ArtifactKind::Quarantine)));
  EnumerationResult Out;
  EXPECT_EQ(Store.loadResult(FX.Root, FX.Fp, Out, Error),
            LoadStatus::Rejected);
  EXPECT_NE(Error.find("kind"), std::string::npos) << Error;
}

TEST(ArtifactStore, SavingAResultSupersedesTheCheckpoint) {
  // One result file per key: a final result replaces the interrupted one
  // it continued. Only the final one settles a quarantined job.
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.MaxMemoryBytes = 20'000;
  const EnumerationResult Partial = Enumerator(PM, Cfg).enumerate(F);
  ASSERT_TRUE(isResumableStop(Partial.Stop));
  Cfg.MaxMemoryBytes = 0;
  const EnumerationResult Final = Enumerator(PM, Cfg).enumerate(F);
  ASSERT_TRUE(Final.complete());

  ArtifactStore Store(freshDir("supersede"));
  std::string Error;
  ASSERT_TRUE(Store.prepare(Error)) << Error;
  HashTriple Root = canonicalize(F, false, Cfg.RemapRegisters).Hash;
  uint64_t Fp = configFingerprint(Cfg);
  QuarantineRecord Q;
  ASSERT_TRUE(Store.saveQuarantine(Root, Fp, Q, Error)) << Error;

  ASSERT_TRUE(Store.saveResult(Root, Fp, Partial, Error)) << Error;
  EnumerationResult Loaded;
  ASSERT_EQ(Store.loadResult(Root, Fp, Loaded, Error), LoadStatus::Hit);
  EXPECT_EQ(Loaded.Stop, Partial.Stop);
  EXPECT_EQ(Loaded.Frontier.size(), Partial.Frontier.size());
  EXPECT_EQ(Store.loadQuarantine(Root, Fp, Q, Error), LoadStatus::Hit)
      << "an interrupted result must not clear the quarantine record";

  ASSERT_TRUE(Store.saveResult(Root, Fp, Final, Error)) << Error;
  ASSERT_EQ(Store.loadResult(Root, Fp, Loaded, Error), LoadStatus::Hit);
  EXPECT_TRUE(Loaded.complete());
  EXPECT_TRUE(Loaded.Frontier.empty());
  EXPECT_EQ(Loaded.Nodes.size(), Final.Nodes.size());
  EXPECT_EQ(Store.loadQuarantine(Root, Fp, Q, Error), LoadStatus::Miss)
      << "a final result must clear the quarantine record";
}

TEST(ReadFileBytes, MissingPathAndDirectoryAreNotRead) {
  const std::string Dir = freshDir("read-missing");
  std::filesystem::create_directories(Dir);
  std::vector<uint8_t> Bytes;
  EXPECT_FALSE(readFileBytes(Dir + "/absent.pose", Bytes));
  EXPECT_FALSE(readFileBytes(Dir, Bytes));
}

TEST(ReadFileBytes, EmptyFileIsReadAsZeroBytes) {
  const std::string Dir = freshDir("read-empty");
  std::filesystem::create_directories(Dir);
  writeFile(Dir + "/empty", {});
  std::vector<uint8_t> Bytes = {1, 2, 3};
  ASSERT_TRUE(readFileBytes(Dir + "/empty", Bytes));
  EXPECT_TRUE(Bytes.empty());
}

TEST(ReadFileBytes, LargeFileComesBackByteForByte) {
  const std::string Dir = freshDir("read-large");
  std::filesystem::create_directories(Dir);
  std::vector<uint8_t> Want(1 << 20);
  for (size_t I = 0; I != Want.size(); ++I)
    Want[I] = static_cast<uint8_t>(I * 131 + (I >> 9));
  writeFile(Dir + "/large", Want);
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(readFileBytes(Dir + "/large", Bytes));
  EXPECT_EQ(Bytes, Want);
}

TEST(ReadFileBytes, FileReportingSizeZeroIsReadToEof) {
  // procfs reports st_size 0 for a file with content: the read must not
  // trust the size.
  std::vector<uint8_t> Bytes;
  ASSERT_TRUE(readFileBytes("/proc/self/status", Bytes));
  EXPECT_FALSE(Bytes.empty());
}

TEST(ArtifactStore, UnwritableDirectoryReportsAnError) {
  ArtifactStore Store("/proc/definitely/not/writable");
  std::string Error;
  EXPECT_FALSE(Store.prepare(Error));
  EXPECT_FALSE(Error.empty());
}

} // namespace
