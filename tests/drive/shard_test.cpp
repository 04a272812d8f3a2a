//===- shard_test.cpp - Sharded sweeps, merge, and crash recovery --------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The distributed-sweep contract: shard assignment is a pure function of
// the canonical root, N supervisors with disjoint shard indices cover
// every job exactly once, and merging their stores yields a store
// byte-identical to a single unsharded sweep — even when every shard's
// workers crash mid-commit on their first attempt. Plus the operator
// surface: torn-rename recovery through the real posec binary, and the
// documented exit codes for --fsck (9), --fsck --repair (0), and a
// merge conflict (10), including for CRC-valid artifacts whose node
// indices point outside their DAG.
//
//===----------------------------------------------------------------------===//

#include "src/drive/Supervisor.h"

#include "src/core/Canonical.h"
#include "src/drive/ExitCodes.h"
#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/store/ArtifactStore.h"
#include "src/store/Serialize.h"
#include "src/store/StoreAdmin.h"
#include "src/support/FaultFs.h"
#include "src/support/Subprocess.h"
#include "tests/common/Helpers.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <map>

namespace fs = std::filesystem;

using namespace pose;
using namespace pose::drive;
using namespace pose::testhelpers;

namespace {

// Four distinct-body functions: four distinct roots to spread over shards.
const char *SweepSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}"
    "int g(int a,int b){return a+b+7;}"
    "int h(int x){int y=x*3;if(y>10){y=y-1;}return y;}"
    "int k(int a){int t=0;int j=a;while(j>0){t=t+j;j=j-2;}return t;}";

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "pose-shard-" + Name;
  fs::remove_all(Dir);
  return Dir;
}

std::string sourceFile(const char *Name) {
  std::string Path = ::testing::TempDir() + "pose-shard-" + Name + ".mc";
  std::ofstream Out(Path, std::ios::trunc);
  Out << SweepSource;
  return Path;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

SupervisorOptions baseOptions(const std::string &Input,
                              const std::string &StoreDir) {
  SupervisorOptions O;
  O.PosecPath = POSE_POSEC_PATH;
  O.InputPath = Input;
  O.StoreDir = StoreDir;
  O.Budget = 50'000;
  O.Retry.BaseDelayMs = 1;
  O.Retry.MaxDelayMs = 2;
  return O;
}

SubprocessResult runPosec(std::vector<std::string> Args) {
  SubprocessSpec Spec;
  Spec.Argv.push_back(POSE_POSEC_PATH);
  for (std::string &A : Args)
    Spec.Argv.push_back(std::move(A));
  Spec.TimeoutMs = 60'000;
  return runSubprocess(Spec);
}

/// Maps file name -> bytes for every `*.pose` artifact in \p Dir.
std::map<std::string, std::vector<uint8_t>>
storeContents(const std::string &Dir) {
  std::map<std::string, std::vector<uint8_t>> Out;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    const std::string Name = E.path().filename().string();
    if (E.is_regular_file() && Name.size() > 5 &&
        Name.compare(Name.size() - 5, 5, ".pose") == 0)
      Out[Name] = readFile(E.path().string());
  }
  return Out;
}

/// The merged store must be byte-identical to the reference: same file
/// names, same bytes, nothing extra on either side.
void expectSameStores(const std::string &Ref, const std::string &Got,
                      const char *What) {
  const auto A = storeContents(Ref), B = storeContents(Got);
  ASSERT_EQ(A.size(), B.size()) << What;
  for (const auto &KV : A) {
    const auto It = B.find(KV.first);
    ASSERT_TRUE(It != B.end()) << What << " missing " << KV.first;
    EXPECT_EQ(KV.second, It->second) << What << " differs: " << KV.first;
  }
}

std::vector<std::string> tmpFilesIn(const std::string &Dir) {
  std::vector<std::string> Out;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    const std::string Name = E.path().filename().string();
    if (Name.size() > 9 &&
        Name.compare(Name.size() - 9, 9, ".pose.tmp") == 0)
      Out.push_back(Name);
  }
  return Out;
}

TEST(ShardOfRoot, IsDeterministicAndInRange) {
  Module M = compileOrDie(SweepSource);
  for (Function &F : M.Functions) {
    const HashTriple Root = canonicalize(F, false, true).Hash;
    for (uint64_t N = 1; N <= 8; ++N) {
      const uint64_t S = shardOfRoot(Root, N);
      EXPECT_LT(S, N) << F.Name;
      EXPECT_EQ(S, shardOfRoot(Root, N)) << F.Name;
    }
    EXPECT_EQ(shardOfRoot(Root, 1), 0u) << F.Name;
  }
}

TEST(ShardOfRoot, DependsOnEveryTripleField) {
  // Flipping any field of the triple moves the 64-bit hash (and, with
  // overwhelming likelihood for these deltas, the shard at large N).
  const HashTriple Base{10, 1234, 0xDEADBEEF};
  HashTriple DInst = Base, DSum = Base, DCrc = Base;
  DInst.InstCount += 1;
  DSum.ByteSum += 1;
  DCrc.Crc ^= 1;
  constexpr uint64_t N = 1u << 16; // Wide modulus: collisions unlikely.
  const uint64_t S = shardOfRoot(Base, N);
  EXPECT_NE(S, shardOfRoot(DInst, N));
  EXPECT_NE(S, shardOfRoot(DSum, N));
  EXPECT_NE(S, shardOfRoot(DCrc, N));
}

// The heart of the tentpole: for N shards, run N crash-injected sweeps
// (every owned worker's first attempt dies between tmp-write and rename),
// merge the shard stores, and require the result byte-identical to one
// clean unsharded sweep. A re-sweep of the merged store must then be all
// cache hits.
void shardedSweepRoundTrip(uint64_t ShardCount) {
  const std::string Tag = "n" + std::to_string(ShardCount);
  const std::string Input = sourceFile(("roundtrip-" + Tag).c_str());
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;

  // Reference: one clean, unsharded sweep.
  const std::string RefDir = freshDir("ref-" + Tag);
  {
    SweepReport R = superviseModule(PM, M, baseOptions(Input, RefDir));
    ASSERT_EQ(R.Error, "");
    ASSERT_EQ(R.exitCode(), ExitCode::Ok);
  }

  // N sharded sweeps, each with crash-before-rename injected into every
  // first attempt. Every job must be owned by exactly one shard.
  std::vector<std::string> ShardDirs;
  std::map<std::string, unsigned> Owners;
  for (uint64_t K = 1; K <= ShardCount; ++K) {
    SupervisorOptions O = baseOptions(
        Input, freshDir("shard-" + Tag + "-" + std::to_string(K)));
    O.ShardIndex = K;
    O.ShardCount = ShardCount;
    O.FaultIoSpec = "crash-before-rename:1";
    O.FaultAttempts = 1; // Attempt 1 tears the rename; attempt 2 is clean.
    O.Retry.MaxRetries = 2;
    ShardDirs.push_back(O.StoreDir);

    SweepReport R = superviseModule(PM, M, O);
    ASSERT_EQ(R.Error, "");
    ASSERT_EQ(R.Jobs.size(), M.Functions.size());
    for (const JobOutcome &J : R.Jobs) {
      if (J.Status == JobStatus::OtherShard) {
        EXPECT_NE(J.Detail.find("assigned to shard"), std::string::npos)
            << J.Detail;
        EXPECT_EQ(J.Attempts, 0u) << J.Func;
        continue;
      }
      EXPECT_EQ(J.Status, JobStatus::Ok) << J.Func << ": " << J.Detail;
      EXPECT_EQ(J.Attempts, 2u) << J.Func; // Crash, then recovery.
      Owners[J.Func] += 1;
    }
    EXPECT_EQ(R.exitCode(), ExitCode::Ok); // OtherShard is exit-neutral.
  }
  ASSERT_EQ(Owners.size(), M.Functions.size());
  for (const auto &KV : Owners)
    EXPECT_EQ(KV.second, 1u) << KV.first << " owned by multiple shards";

  // Merge and compare byte-for-byte against the unsharded reference.
  const std::string Merged = freshDir("merged-" + Tag);
  const store::MergeReport MR = store::mergeStores(Merged, ShardDirs);
  ASSERT_EQ(MR.Status, store::MergeStatus::Ok) << MR.Error;
  EXPECT_EQ(MR.Copied, M.Functions.size());
  expectSameStores(RefDir, Merged, Tag.c_str());

  // A fault-free sweep over the merged store is served from the cache.
  SweepReport Again = superviseModule(PM, M, baseOptions(Input, Merged));
  ASSERT_EQ(Again.Error, "");
  for (const JobOutcome &J : Again.Jobs)
    EXPECT_EQ(J.Status, JobStatus::Cached) << J.Func << ": " << J.Detail;
}

TEST(ShardedSweep, TwoCrashInjectedShardsMergeByteIdentical) {
  shardedSweepRoundTrip(2);
}

TEST(ShardedSweep, ThreeCrashInjectedShardsMergeByteIdentical) {
  shardedSweepRoundTrip(3);
}

TEST(ShardedSweep, SupervisorReclaimsStaleTmpAtStartup) {
  const std::string Input = sourceFile("reclaim");
  Module M = compileOrDie(SweepSource);
  PhaseManager PM;
  const std::string Dir = freshDir("reclaim");
  fs::create_directories(Dir);
  {
    std::ofstream Out(fs::path(Dir) /
                      "11112222-33334444-55556666.result.pose.tmp");
    Out << "torn";
  }
  SweepReport R = superviseModule(PM, M, baseOptions(Input, Dir));
  ASSERT_EQ(R.Error, "");
  ASSERT_EQ(R.ReclaimedTmp.size(), 1u);
  EXPECT_NE(R.ReclaimedTmp[0].find(".pose.tmp"), std::string::npos);
  EXPECT_TRUE(tmpFilesIn(Dir).empty());
}

TEST(TornRenameCli, CrashedEnumerationRecoversByteIdentical) {
  const std::string Input = sourceFile("torn");

  // Reference: a clean single-function enumeration.
  const std::string RefDir = freshDir("torn-ref");
  SubprocessResult Ref = runPosec(
      {Input, "--enumerate=f", "--store=" + RefDir, "--budget=2000"});
  ASSERT_EQ(Ref.Kind, ExitKind::Exited) << Ref.Error;
  ASSERT_EQ(Ref.ExitCode, 0) << Ref.Stderr;

  // The same run with the rename torn: the process dies with the
  // documented injected-crash code, leaving only an orphaned temp file —
  // never a half-written artifact under the final name.
  const std::string Dir = freshDir("torn");
  SubprocessResult Crash = runPosec(
      {Input, "--enumerate=f", "--store=" + Dir, "--budget=2000",
       "--fault-io=crash-before-rename:1"});
  ASSERT_EQ(Crash.Kind, ExitKind::Exited) << Crash.Error;
  EXPECT_EQ(Crash.ExitCode, kIoCrashExit) << Crash.Stderr;
  EXPECT_EQ(tmpFilesIn(Dir).size(), 1u);
  EXPECT_TRUE(storeContents(Dir).empty()); // No committed artifact.

  // fsck sees exactly the orphan and exits with the corrupt-store code.
  SubprocessResult Fsck = runPosec({"--fsck", "--store=" + Dir});
  ASSERT_EQ(Fsck.Kind, ExitKind::Exited) << Fsck.Error;
  EXPECT_EQ(Fsck.ExitCode, ExitCode::StoreCorrupt) << Fsck.Stdout;
  EXPECT_NE(Fsck.Stdout.find("orphan"), std::string::npos) << Fsck.Stdout;

  // A clean rerun converges: same bytes as the reference, temp gone.
  SubprocessResult Redo = runPosec(
      {Input, "--enumerate=f", "--store=" + Dir, "--budget=2000"});
  ASSERT_EQ(Redo.Kind, ExitKind::Exited) << Redo.Error;
  EXPECT_EQ(Redo.ExitCode, 0) << Redo.Stderr;
  EXPECT_TRUE(tmpFilesIn(Dir).empty());
  expectSameStores(RefDir, Dir, "torn-rename recovery");

  SubprocessResult Clean = runPosec({"--fsck", "--store=" + Dir});
  ASSERT_EQ(Clean.Kind, ExitKind::Exited) << Clean.Error;
  EXPECT_EQ(Clean.ExitCode, 0) << Clean.Stdout;
}

TEST(FsckCli, CorruptionExitsNineAndRepairRestoresZero) {
  const std::string Input = sourceFile("fsckcli");
  const std::string Dir = freshDir("fsckcli");
  SubprocessResult Run = runPosec(
      {Input, "--enumerate=f", "--store=" + Dir, "--budget=2000"});
  ASSERT_EQ(Run.Kind, ExitKind::Exited) << Run.Error;
  ASSERT_EQ(Run.ExitCode, 0) << Run.Stderr;

  // Flip one payload byte of the only artifact.
  const auto Contents = storeContents(Dir);
  ASSERT_EQ(Contents.size(), 1u);
  const std::string Victim =
      (fs::path(Dir) / Contents.begin()->first).string();
  std::vector<uint8_t> Bad = Contents.begin()->second;
  Bad[Bad.size() - 1] ^= 0x01;
  {
    std::ofstream Out(Victim, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Bad.data()),
              static_cast<std::streamsize>(Bad.size()));
  }

  SubprocessResult Fsck = runPosec({"--fsck", "--store=" + Dir});
  ASSERT_EQ(Fsck.Kind, ExitKind::Exited) << Fsck.Error;
  EXPECT_EQ(Fsck.ExitCode, ExitCode::StoreCorrupt) << Fsck.Stdout;
  EXPECT_NE(Fsck.Stdout.find("corrupt"), std::string::npos) << Fsck.Stdout;

  SubprocessResult Repair =
      runPosec({"--fsck", "--repair", "--store=" + Dir});
  ASSERT_EQ(Repair.Kind, ExitKind::Exited) << Repair.Error;
  EXPECT_EQ(Repair.ExitCode, 0) << Repair.Stdout << Repair.Stderr;
  EXPECT_NE(Repair.Stdout.find("repaired"), std::string::npos)
      << Repair.Stdout;
  EXPECT_TRUE(
      fs::exists(fs::path(Dir) / store::kLostAndFoundDir /
                 Contents.begin()->first));

  SubprocessResult Clean = runPosec({"--fsck", "--store=" + Dir});
  ASSERT_EQ(Clean.Kind, ExitKind::Exited) << Clean.Error;
  EXPECT_EQ(Clean.ExitCode, 0) << Clean.Stdout;

  // The repaired store re-sweeps cleanly (the lost artifact regenerates).
  SubprocessResult Redo = runPosec(
      {Input, "--enumerate=f", "--store=" + Dir, "--budget=2000"});
  ASSERT_EQ(Redo.Kind, ExitKind::Exited) << Redo.Error;
  EXPECT_EQ(Redo.ExitCode, 0) << Redo.Stderr;
}

TEST(MergeCli, ConflictExitsTenAndNamesTheKey) {
  const std::string Input = sourceFile("mergecli");
  const std::string DirA = freshDir("mergecli-a");
  const std::string DirB = freshDir("mergecli-b");
  // Same function, different budgets: same store key (the file name is
  // the root triple), different bytes (the fingerprint differs).
  for (const auto &P : {std::make_pair(DirA, "--budget=2000"),
                        std::make_pair(DirB, "--budget=3000")}) {
    SubprocessResult R = runPosec(
        {Input, "--enumerate=f", "--store=" + P.first, P.second});
    ASSERT_EQ(R.Kind, ExitKind::Exited) << R.Error;
    ASSERT_EQ(R.ExitCode, 0) << R.Stderr;
  }
  const auto A = storeContents(DirA);
  ASSERT_EQ(A.size(), 1u);

  const std::string Dst = freshDir("mergecli-dst");
  SubprocessResult Merge =
      runPosec({"--merge-store=" + Dst, DirA, DirB});
  ASSERT_EQ(Merge.Kind, ExitKind::Exited) << Merge.Error;
  EXPECT_EQ(Merge.ExitCode, ExitCode::MergeConflict) << Merge.Stderr;
  EXPECT_NE(Merge.Stderr.find("merge conflict"), std::string::npos)
      << Merge.Stderr;
  EXPECT_NE(Merge.Stderr.find(A.begin()->first), std::string::npos)
      << Merge.Stderr;

  // Identical stores merge fine and dedupe.
  const std::string Dst2 = freshDir("mergecli-dst2");
  SubprocessResult Ok = runPosec({"--merge-store=" + Dst2, DirA, DirA});
  ASSERT_EQ(Ok.Kind, ExitKind::Exited) << Ok.Error;
  EXPECT_EQ(Ok.ExitCode, 0) << Ok.Stderr;
  EXPECT_NE(Ok.Stdout.find("1 identical (deduped)"), std::string::npos)
      << Ok.Stdout;
}

// A node index is trusted as a subscript by every reader of a DAG
// (interaction mining, resume), so an artifact whose indices point past
// its node array is damaged even when its checksums hold: the load is
// Rejected and --fsck exits StoreCorrupt (9). So is a frontier that is
// not one level of its partial DAG, which a resume would expand as one,
// or that a resume could not append its edges after: its nodes must
// ascend, with no edges on any node from its first on.
TEST(FsckCli, OutOfRangeNodeIndicesAreRejected) {
  Module M = compileOrDie(SweepSource);
  Function &F = functionNamed(M, "f");
  PhaseManager PM;
  const HashTriple Root = canonicalize(F, false, true).Hash;

  EnumeratorConfig Cfg;
  const uint64_t Fp = store::configFingerprint(Cfg);
  const EnumerationResult Res = Enumerator(PM, Cfg).enumerate(F);
  ASSERT_TRUE(Res.complete());
  EnumeratorConfig Budgeted = Cfg;
  Budgeted.MaxMemoryBytes = 20'000;
  const EnumerationResult Partial = Enumerator(PM, Budgeted).enumerate(F);
  ASSERT_TRUE(isResumableStop(Partial.Stop));
  ASSERT_GE(Partial.Frontier.size(), 2u);
  ASSERT_NE(Partial.Nodes[Partial.Frontier[0].Node].Level, 0u);
  const uint32_t Known = static_cast<uint32_t>(Partial.Nodes.size());

  // Each damaged artifact goes into a store of its own; the unmodified
  // ones are the control.
  auto Check = [&](const std::string &Name, auto Save, auto Load,
                   store::LoadStatus Want) {
    const std::string Dir = freshDir("index-" + Name);
    const store::ArtifactStore S(Dir);
    std::string Error;
    ASSERT_TRUE(S.prepare(Error)) << Error;
    ASSERT_TRUE(Save(S, Error)) << Error;
    EXPECT_EQ(Load(S, Error), Want) << Name << ": " << Error;
    SubprocessResult Fsck = runPosec({"--fsck", "--store=" + Dir});
    ASSERT_EQ(Fsck.Kind, ExitKind::Exited) << Fsck.Error;
    EXPECT_EQ(Fsck.ExitCode, Want == store::LoadStatus::Hit
                                 ? 0
                                 : static_cast<int>(ExitCode::StoreCorrupt))
        << Name << ": " << Fsck.Stdout;
  };
  auto CheckResult = [&](const std::string &Name, const EnumerationResult &R,
                         store::LoadStatus Want) {
    Check(
        Name,
        [&](const store::ArtifactStore &S, std::string &E) {
          return S.saveResult(Root, Fp, R, E);
        },
        [&](const store::ArtifactStore &S, std::string &E) {
          EnumerationResult Out;
          return S.loadResult(Root, Fp, Out, E);
        },
        Want);
  };

  // Results are move-only; each damaged one starts as a copy made by an
  // encode/decode round trip.
  auto CopyOf = [](const EnumerationResult &R) {
    ByteWriter W;
    store::encodeResult(W, R);
    ByteReader Rd(W.bytes());
    EnumerationResult Copy;
    EXPECT_TRUE(store::decodeResult(Rd, Copy));
    return Copy;
  };

  CheckResult("result-intact", Res, store::LoadStatus::Hit);
  EnumerationResult BadEdge = CopyOf(Res);
  ASSERT_FALSE(BadEdge.Nodes[0].Edges.empty());
  BadEdge.Edges[0].To = 0xFFFFFFF0u; // The root's first edge.
  CheckResult("edge-target", BadEdge, store::LoadStatus::Rejected);
  BadEdge.Edges[0].To = static_cast<uint32_t>(BadEdge.Nodes.size());
  CheckResult("edge-one-past", BadEdge, store::LoadStatus::Rejected);

  CheckResult("partial-intact", Partial, store::LoadStatus::Hit);
  EnumerationResult BadNode = CopyOf(Partial);
  BadNode.Frontier[0].Node = 0x7FFFFFFFu;
  CheckResult("frontier-node", BadNode, store::LoadStatus::Rejected);
  BadNode.Frontier[0].Node = Known;
  CheckResult("frontier-one-past", BadNode, store::LoadStatus::Rejected);
  EnumerationResult MixedLevels = CopyOf(Partial);
  MixedLevels.Frontier.back().Node = 0; // The root, at level 0.
  CheckResult("frontier-level", MixedLevels, store::LoadStatus::Rejected);
  // A resume appends the frontier's edges in frontier order after every
  // edge the DAG has, so the frontier must ascend and be unexpanded.
  EnumerationResult Unordered = CopyOf(Partial);
  std::swap(Unordered.Frontier[0], Unordered.Frontier[1]);
  CheckResult("frontier-order", Unordered, store::LoadStatus::Rejected);
  EnumerationResult Expanded = CopyOf(Partial);
  ASSERT_EQ(Expanded.Frontier.back().Node, Known - 1);
  Expanded.appendEdges(Known - 1, 1)[0] = {PhaseId::Cse, 0};
  CheckResult("frontier-expanded", Expanded, store::LoadStatus::Rejected);
  // A node after the frontier's first that is not in the frontier may not
  // have edges either: a resume would append the frontier's after them.
  EnumerationResult EdgesAfter = CopyOf(Partial);
  EdgesAfter.Frontier.pop_back();
  EdgesAfter.appendEdges(Known - 1, 1)[0] = {PhaseId::Cse, 0};
  CheckResult("edges-after-frontier", EdgesAfter, store::LoadStatus::Rejected);
  // An edge past the node array, on the last expanded node (whose edges
  // end the array).
  EnumerationResult BadPartial = CopyOf(Partial);
  BadPartial.appendEdges(Partial.Frontier[0].Node - 1, 1)[0] = {
      PhaseId::Cse, Known + 5};
  CheckResult("partial-edge", BadPartial, store::LoadStatus::Rejected);
}

} // namespace
