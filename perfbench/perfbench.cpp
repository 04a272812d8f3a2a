//===- perfbench.cpp - The POSE end-to-end and per-layer benchmark --------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One closed-loop caller drives one of four workloads through the public
// API and checks every output against perfbench/goldens.txt:
//
//   enum-suite    exhaustive enumeration of all 67 suite functions, Jobs=1
//   enum-wide     the six widest/largest functions, Jobs=4
//   prob-compile  ProbabilisticCompiler::compile and batchCompile of every
//                 function, each followed by fixEntryExit
//   sweep-store   drive::superviseModule of the seven programs with real
//                 posec workers (SweepJobs=4), cold then warm store
//
// The seed only permutes the submission order, so the work and the
// expected outputs are the same for every seed. With --trace 0 the last
// stdout line is a JSON object holding the end-to-end metrics; with
// --trace 1 the run measures the loop untraced and traced (the tracing
// overhead), then runs the layer census: every call into a layer is
// wrapped in a span, spans are kept in memory and written once at exit,
// and the per-layer metrics are computed from them.
//
// Usage: pose_perfbench --workload NAME --seed N --seconds S --trace 0|1
//          --posec PATH [--goldens FILE] [--workdir DIR]
//          [--trace-file FILE] [--perturb-golden]
//        pose_perfbench --write-goldens
//
//===----------------------------------------------------------------------===//

#include "src/analysis/DependenceDag.h"
#include "src/analysis/Dominators.h"
#include "src/analysis/Liveness.h"
#include "src/analysis/Loops.h"
#include "src/core/Canonical.h"
#include "src/core/Compilers.h"
#include "src/core/DagPaths.h"
#include "src/core/Enumerator.h"
#include "src/core/Interaction.h"
#include "src/drive/Supervisor.h"
#include "src/frontend/Compile.h"
#include "src/machine/EntryExit.h"
#include "src/opt/Cleanup.h"
#include "src/opt/PhaseManager.h"
#include "src/sim/Interpreter.h"
#include "src/store/ArtifactStore.h"
#include "src/store/Serialize.h"
#include "src/support/Subprocess.h"
#include "src/workloads/Workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace pose;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Linear-interpolated percentile (Q in [0,1]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return percentile(V, 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Peak resident set in MB; with \p Children, the larger of this process
/// and its largest reaped child (the posec workers of a sweep).
double peakRssMb(bool Children) {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  long Kb = Self.ru_maxrss;
  if (Children) {
    getrusage(RUSAGE_CHILDREN, &Kids);
    Kb = std::max(Kb, Kids.ru_maxrss);
  }
  return static_cast<double>(Kb) / 1024.0;
}

//===-- Tracing -----------------------------------------------------------===//

/// One timed call into a layer.
struct Span {
  uint32_t Name = 0;
  uint32_t Parent = UINT32_MAX;
  uint64_t Start = 0; ///< ns since the tracer's epoch
  uint64_t End = 0;
};

/// In-memory span recorder for the single benchmark caller thread. Spans
/// are only recorded while enabled; they are written out once, at exit.
class Tracer {
public:
  Tracer() : Epoch(Clock::now()) {
    RunId = (static_cast<uint64_t>(getpid()) << 32) ^
            static_cast<uint64_t>(Epoch.time_since_epoch().count());
  }

  bool On = false;

  uint32_t name(const std::string &N) {
    auto It = Ids.find(N);
    if (It != Ids.end())
      return It->second;
    Names.push_back(N);
    return Ids[N] = static_cast<uint32_t>(Names.size() - 1);
  }

  uint32_t begin(uint32_t Name) {
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? UINT32_MAX : Stack.back();
    S.Start = now();
    Spans.push_back(S);
    Stack.push_back(static_cast<uint32_t>(Spans.size() - 1));
    return Stack.back();
  }

  void end(uint32_t Id) {
    Spans[Id].End = now();
    Stack.pop_back();
  }

  size_t size() const { return Spans.size(); }

  /// Durations in ns of the spans named \p N recorded at index >= From.
  std::vector<double> durations(const std::string &N, size_t From = 0) const {
    std::vector<double> Out;
    auto It = Ids.find(N);
    if (It == Ids.end())
      return Out;
    for (size_t I = From; I < Spans.size(); ++I)
      if (Spans[I].Name == It->second)
        Out.push_back(static_cast<double>(Spans[I].End - Spans[I].Start));
    return Out;
  }

  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "run_id,span,parent,name,start_ns,end_ns\n";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << RunId << ',' << I << ','
          << (S.Parent == UINT32_MAX ? -1 : static_cast<int64_t>(S.Parent))
          << ',' << Names[S.Name] << ',' << S.Start << ',' << S.End << '\n';
    }
    return static_cast<bool>(Out);
  }

private:
  uint64_t now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }

  Clock::time_point Epoch;
  uint64_t RunId = 0;
  std::vector<std::string> Names;
  std::map<std::string, uint32_t> Ids;
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
};

/// RAII span; a no-op while the tracer is off.
class Scope {
public:
  Scope(Tracer &T, uint32_t Name) : T(T), Id(T.On ? T.begin(Name) : 0) {}
  ~Scope() {
    if (T.On)
      T.end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  uint32_t Id;
};

//===-- Suite and goldens -------------------------------------------------===//

char programTag(const std::string &Name) {
  static const std::map<std::string, char> Tags = {
      {"bitcount", 'b'}, {"dijkstra", 'd'},     {"fft", 'f'},
      {"jpeg", 'j'},     {"sha", 'h'},          {"stringsearch", 's'},
      {"crc32", 'c'}};
  auto It = Tags.find(Name);
  return It == Tags.end() ? '?' : It->second;
}

struct Program {
  const Workload *Info = nullptr;
  Module M;
};

/// One function of the suite: program index, function index, and the
/// paper-style key "name(tag)".
struct FnRef {
  size_t Prog = 0;
  size_t Fn = 0;
  std::string Key;
};

std::vector<Program> compileSuite() {
  std::vector<Program> Out;
  for (const Workload &W : allWorkloads()) {
    CompileResult R = compileMC(W.Source);
    if (!R.ok())
      throw std::runtime_error(std::string("workload ") + W.Name +
                               " failed to compile: " + R.diagText());
    Out.push_back({&W, std::move(R.M)});
  }
  return Out;
}

std::vector<FnRef> suiteFunctions(const std::vector<Program> &Ps) {
  std::vector<FnRef> Out;
  for (size_t P = 0; P != Ps.size(); ++P)
    for (size_t F = 0; F != Ps[P].M.Functions.size(); ++F)
      Out.push_back({P, F,
                     Ps[P].M.Functions[F].Name + "(" +
                         programTag(Ps[P].Info->Name) + ")"});
  return Out;
}

/// Expected Table 3 row of one function, plus its DAG digest.
struct FnGolden {
  uint64_t Nodes = 0, Attempted = 0, Leaves = 0, Len = 0, MinLeaf = 0,
           MaxLeaf = 0, Digest = 0;
  bool operator==(const FnGolden &) const = default;
};

/// Expected behaviour of one unoptimized program under the interpreter.
struct ProgGolden {
  int64_t Ret = 0;
  uint64_t OutDigest = 0;
  bool operator==(const ProgGolden &) const = default;
};

struct Goldens {
  std::map<std::string, FnGolden> Fns;
  std::map<std::string, ProgGolden> Progs;
  uint64_t ProbCodeInsts = 0, ProbDynInsts = 0;
};

uint64_t fnv(uint64_t H, uint64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 0x100000001b3ull;
  }
  return H;
}
constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

/// Digest over every node's hash triple, masks and edges: equal digests
/// mean byte-identical DAGs, as the parallel engine guarantees.
uint64_t dagDigest(const EnumerationResult &R) {
  uint64_t H = FnvBasis;
  for (const DagNode &N : R.Nodes) {
    H = fnv(H, N.Hash.InstCount);
    H = fnv(H, N.Hash.ByteSum);
    H = fnv(H, N.Hash.Crc);
    H = fnv(H, (uint64_t(N.ActiveMask) << 32) | (uint64_t(N.DormantMask) << 16) |
                   N.AttemptedMask);
    for (const DagEdge &E : N.Edges)
      H = fnv(H, (uint64_t(static_cast<uint8_t>(E.Phase)) << 32) | E.To);
  }
  return H;
}

FnGolden measureFn(const EnumerationResult &R) {
  FnGolden G;
  G.Nodes = R.Nodes.size();
  G.Attempted = R.AttemptedPhases;
  G.Len = R.MaxActiveLength;
  G.MinLeaf = UINT64_MAX;
  for (const DagNode &N : R.Nodes)
    if (N.isLeaf()) {
      ++G.Leaves;
      G.MinLeaf = std::min<uint64_t>(G.MinLeaf, N.CodeSize);
      G.MaxLeaf = std::max<uint64_t>(G.MaxLeaf, N.CodeSize);
    }
  G.Digest = dagDigest(R);
  return G;
}

ProgGolden measureProg(const RunResult &R) {
  uint64_t H = FnvBasis;
  for (int32_t W : R.Output)
    H = fnv(H, static_cast<uint32_t>(W));
  return {R.Ok ? R.ReturnValue : INT64_MIN, fnv(H, R.Output.size())};
}

Goldens readGoldens(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read goldens " + Path);
  Goldens G;
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream S(Line);
    std::string Kind, Key;
    S >> Kind;
    if (Kind == "fn") {
      FnGolden F;
      S >> Key >> F.Nodes >> F.Attempted >> F.Leaves >> F.Len >> F.MinLeaf >>
          F.MaxLeaf >> std::hex >> F.Digest;
      G.Fns[Key] = F;
    } else if (Kind == "prog") {
      ProgGolden P;
      S >> Key >> P.Ret >> std::hex >> P.OutDigest;
      G.Progs[Key] = P;
    } else if (Kind == "prob") {
      S >> G.ProbCodeInsts >> G.ProbDynInsts;
    } else {
      continue;
    }
    if (S.fail())
      throw std::runtime_error("malformed goldens line: " + Line);
  }
  if (G.Fns.size() != 67 || G.Progs.size() != 7)
    throw std::runtime_error("goldens must list 67 functions, 7 programs");
  return G;
}

EnumeratorConfig enumConfig(unsigned Jobs) {
  EnumeratorConfig C; // the paper's 1M active sequences per level
  C.Jobs = Jobs;
  return C;
}

//===-- Benchmark state ---------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string GoldensPath = "perfbench/goldens.txt";
  std::string Posec;
  std::string WorkDir = ".bench_build/perfbench-work";
  std::string TraceFile; ///< spans of a traced run (default: in WorkDir)
  bool PerturbGolden = false;
};

/// What the timed loop measured.
struct LoopStats {
  std::vector<double> PassSeconds;
  /// The workload's operation latencies in us, by input (function or
  /// program).
  std::map<std::string, std::vector<double>> Ops;
  std::vector<double> BatchUs; ///< prob-compile: batchCompile + fixEntryExit
  std::vector<double> ColdS;   ///< sweep-store: cold sweep of 7 programs
  std::vector<double> WarmMs;  ///< sweep-store: one warm sweep of 7 programs
  /// Seconds of every call that carries the workload's phase attempts,
  /// by input (function, or program for a cold sweep).
  std::map<std::string, std::vector<double>> Work;
  uint64_t PassAttempts = 0; ///< phase attempts per pass (deterministic)
  uint64_t ProbCodeInsts = 0, ProbDynInsts = 0;

  /// The pass as the sum over inputs of each input's fastest call. Load
  /// from elsewhere on the machine comes in bursts of seconds that slow
  /// every call in them; an input's fastest repeat is the one such a
  /// burst missed, so this is much steadier than the median pass.
  double bestPass() const {
    double S = 0;
    for (const auto &[Key, Samples] : Work)
      S += *std::min_element(Samples.begin(), Samples.end());
    return S;
  }

  std::vector<double> allOps() const {
    std::vector<double> Out;
    for (const auto &[Key, Samples] : Ops)
      Out.insert(Out.end(), Samples.begin(), Samples.end());
    return Out;
  }

  /// Each input's fastest operation, in us.
  std::vector<double> bestOps() const {
    std::vector<double> Out;
    for (const auto &[Key, Samples] : Ops)
      Out.push_back(*std::min_element(Samples.begin(), Samples.end()));
    return Out;
  }

  void endPass(uint64_t Attempts) {
    if (PassAttempts && PassAttempts != Attempts)
      throw std::runtime_error("phase attempts differ between passes");
    PassAttempts = Attempts;
  }
};

class Bench {
public:
  explicit Bench(Options O) : Opt(std::move(O)), Rng(Opt.Seed) {}
  int run();
  static int writeGoldens();

private:
  void setUp();
  void timedSetUp();
  void pass(LoopStats &L);
  void passEnum(LoopStats &L);
  void passCompile(LoopStats &L);
  void passSweep(LoopStats &L);
  LoopStats loop(double Seconds);
  void census(std::vector<std::pair<std::string, double>> &M);
  void check(bool Ok, const std::string &What);
  template <class Elem> std::vector<Elem> permuted(std::vector<Elem> V);
  drive::SupervisorOptions sweepOptions(const std::string &Store) const;
  std::vector<size_t> programsOf(const std::vector<FnRef> &Fs) const;

  Options Opt;
  std::mt19937_64 Rng;
  Tracer T;
  Goldens G;
  uint64_t Attempted = 0, Failed = 0;

  // Set-up products (the state of the last set-up).
  std::vector<Program> Progs;
  std::vector<FnRef> Fns; ///< the workload's function set
  std::unique_ptr<PhaseManager> PM;
  std::unique_ptr<InteractionAnalysis> IA;
  std::unique_ptr<ProbabilisticCompiler> PC;
  std::vector<double> SetupSeconds;
};

void Bench::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 20)
    std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
}

template <class Elem>
std::vector<Elem> Bench::permuted(std::vector<Elem> V) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng() % I]);
  return V;
}

std::vector<size_t> Bench::programsOf(const std::vector<FnRef> &Fs) const {
  std::vector<size_t> Out;
  for (const FnRef &F : Fs)
    if (std::find(Out.begin(), Out.end(), F.Prog) == Out.end())
      Out.push_back(F.Prog);
  return Out;
}

drive::SupervisorOptions Bench::sweepOptions(const std::string &Store) const {
  drive::SupervisorOptions O;
  O.PosecPath = Opt.Posec;
  O.StoreDir = Store;
  O.SweepJobs = 4;
  return O;
}

void Bench::setUp() {
  Progs = compileSuite();
  PM = std::make_unique<PhaseManager>();
  std::vector<FnRef> All = suiteFunctions(Progs);
  Fns.clear();
  if (Opt.Workload == "enum-wide") {
    for (const char *K : {"dijkstra(d)", "make_crc_table(c)",
                          "crc_of_stream(c)", "build_graph(d)",
                          "encode_block(j)", "sha_transform(h)"})
      for (const FnRef &F : All)
        if (F.Key == K)
          Fns.push_back(F);
    if (Fns.size() != 6)
      throw std::runtime_error("enum-wide functions missing from the suite");
  } else {
    Fns = All;
  }
  if (Opt.Workload == "prob-compile") {
    // Table 7 trains on the enumerated spaces of the whole suite.
    Enumerator E(*PM, enumConfig(1));
    IA = std::make_unique<InteractionAnalysis>();
    for (const FnRef &F : Fns)
      IA->addFunction(E.enumerate(Progs[F.Prog].M.Functions[F.Fn]));
    PC = std::make_unique<ProbabilisticCompiler>(*PM, *IA);
  }
}

void Bench::passEnum(LoopStats &L) {
  const bool Wide = Opt.Workload == "enum-wide";
  Enumerator E(*PM, enumConfig(Wide ? 4 : 1));
  const uint32_t SpanName =
      T.name(Wide ? "Enumerator::enumerate/jobs4" : "Enumerator::enumerate/jobs1");
  double PassS = 0;
  uint64_t Attempts = 0;
  for (const FnRef &F : permuted(Fns)) {
    const Function &Root = Progs[F.Prog].M.Functions[F.Fn];
    const auto T0 = Clock::now();
    EnumerationResult R;
    {
      Scope S(T, SpanName);
      R = E.enumerate(Root);
    }
    const double Dt = secondsSince(T0);
    PassS += Dt;
    L.Ops[F.Key].push_back(Dt * 1e6);
    L.Work[F.Key].push_back(Dt);
    Attempts += R.AttemptedPhases;
    check(R.complete() && measureFn(R) == G.Fns[F.Key],
          "enumeration of " + F.Key + " differs from its golden");
  }
  L.PassSeconds.push_back(PassS);
  L.endPass(Attempts);
}

void Bench::passCompile(LoopStats &L) {
  const uint32_t NProb = T.name("ProbabilisticCompiler::compile");
  const uint32_t NBatch = T.name("batchCompile");
  const uint32_t NFix = T.name("fixEntryExit");
  const uint32_t NRun = T.name("Interpreter::run");
  std::vector<Module> Prob, Batch;
  for (const Program &P : Progs) {
    Prob.push_back(P.M);
    Batch.push_back(P.M);
  }
  double PassS = 0;
  uint64_t Attempts = 0;
  for (const FnRef &F : permuted(Fns)) {
    Function &Fn = Prob[F.Prog].Functions[F.Fn];
    const auto T0 = Clock::now();
    CompileStats S;
    {
      Scope Sp(T, NProb);
      S = PC->compile(Fn);
    }
    {
      Scope Sp(T, NFix);
      fixEntryExit(Fn);
    }
    const double Dt = secondsSince(T0);
    PassS += Dt;
    L.Ops[F.Key].push_back(Dt * 1e6);
    L.Work["prob:" + F.Key].push_back(Dt);
    Attempts += S.Attempted;
  }
  for (const FnRef &F : permuted(Fns)) {
    Function &Fn = Batch[F.Prog].Functions[F.Fn];
    const auto T0 = Clock::now();
    CompileStats S;
    {
      Scope Sp(T, NBatch);
      S = batchCompile(*PM, Fn);
    }
    {
      Scope Sp(T, NFix);
      fixEntryExit(Fn);
    }
    const double Dt = secondsSince(T0);
    PassS += Dt;
    L.BatchUs.push_back(Dt * 1e6);
    L.Work["batch:" + F.Key].push_back(Dt);
    Attempts += S.Attempted;
  }
  L.PassSeconds.push_back(PassS);
  L.endPass(Attempts);

  // Output check: both compiled programs behave like the unoptimized one.
  uint64_t Code = 0, Dyn = 0;
  for (size_t P : permuted(programsOf(Fns))) {
    const std::string &Name = Progs[P].Info->Name;
    for (const Function &Fn : Prob[P].Functions)
      Code += Fn.instructionCount();
    RunResult RP, RB;
    {
      Scope Sp(T, NRun);
      RP = Interpreter(Prob[P]).run("main", {});
    }
    {
      Scope Sp(T, NRun);
      RB = Interpreter(Batch[P]).run("main", {});
    }
    Dyn += RP.DynamicInsts;
    check(measureProg(RP) == G.Progs[Name],
          "probabilistically compiled " + Name + " output differs");
    check(measureProg(RB) == G.Progs[Name],
          "batch-compiled " + Name + " output differs");
  }
  check(Code == G.ProbCodeInsts, "prob_code_insts " + std::to_string(Code) +
                                     " differs from its golden");
  check(Dyn == G.ProbDynInsts, "prob_dyn_insts " + std::to_string(Dyn) +
                                   " differs from its golden");
  L.ProbCodeInsts = Code;
  L.ProbDynInsts = Dyn;
}

void Bench::passSweep(LoopStats &L) {
  const uint32_t NSweep = T.name("drive::superviseModule");
  const std::string Store = Opt.WorkDir + "/sweep-store";
  std::filesystem::remove_all(Store);
  drive::SupervisorOptions O = sweepOptions(Store);

  uint64_t Attempts = 0;
  auto sweepOne = [&](size_t P, bool Cold) {
    O.Workload = Progs[P].Info->Name;
    drive::SweepReport R;
    {
      Scope Sp(T, NSweep);
      R = drive::superviseModule(*PM, Progs[P].M, O);
    }
    const char Tag = programTag(O.Workload);
    check(R.Error.empty() && R.Jobs.size() == Progs[P].M.Functions.size(),
          "sweep of " + O.Workload + ": " + R.Error);
    for (const drive::JobOutcome &J : R.Jobs) {
      const FnGolden &Gold = G.Fns[J.Func + "(" + Tag + ")"];
      const auto Want = Cold ? drive::JobStatus::Ok : drive::JobStatus::Cached;
      check(J.Status == Want && J.Nodes == Gold.Nodes,
            std::string(Cold ? "cold" : "warm") + " sweep job " + J.Func +
                "(" + Tag + ") is " + drive::jobStatusName(J.Status) + ", " +
                std::to_string(J.Nodes) + " nodes");
      if (Cold && J.Status == drive::JobStatus::Ok)
        Attempts += Gold.Attempted;
    }
  };

  const std::vector<size_t> Mods = programsOf(Fns);
  auto T0 = Clock::now();
  for (size_t P : permuted(Mods)) {
    const auto T1 = Clock::now();
    sweepOne(P, /*Cold=*/true);
    L.Work[Progs[P].Info->Name].push_back(secondsSince(T1));
  }
  const double Cold = secondsSince(T0);
  L.ColdS.push_back(Cold);
  double PassS = Cold;
  // Several warm sweeps per cold one: each is ~1% of the cold cost, and
  // their per-program latencies are the workload's operation samples.
  for (int Rep = 0; Rep != 5; ++Rep) {
    double Warm = 0;
    for (size_t P : permuted(Mods)) {
      T0 = Clock::now();
      sweepOne(P, /*Cold=*/false);
      const double Dt = secondsSince(T0);
      Warm += Dt;
      L.Ops[Progs[P].Info->Name].push_back(Dt * 1e6);
    }
    L.WarmMs.push_back(Warm * 1e3);
    PassS += Warm;
  }
  L.PassSeconds.push_back(PassS);
  L.endPass(Attempts);
}

void Bench::pass(LoopStats &L) {
  const uint32_t NPass = T.name("pass");
  Scope Sp(T, NPass);
  if (Opt.Workload == "prob-compile")
    passCompile(L);
  else if (Opt.Workload == "sweep-store")
    passSweep(L);
  else
    passEnum(L);
}

/// Set-up is timed several times and its state rebuilt each time; the last
/// one's state is used.
void Bench::timedSetUp() {
  const auto T0 = Clock::now();
  setUp();
  SetupSeconds.push_back(secondsSince(T0));
}

LoopStats Bench::loop(double Seconds) {
  LoopStats L;
  const auto T0 = Clock::now();
  do {
    // A ms-scale set-up runs again before every pass, so its samples are
    // spread over the run like the passes' own.
    if (Opt.Workload != "prob-compile")
      timedSetUp();
    pass(L);
  } while (secondsSince(T0) < Seconds);
  return L;
}

//===-- Layer census (traced run) -----------------------------------------===//

void Bench::census(std::vector<std::pair<std::string, double>> &M) {
  const size_t From = T.size();
  auto add = [&](const std::string &N, double V) { M.push_back({N, V}); };
  auto med = [&](const std::string &N) { return median(T.durations(N, From)); };
  auto tot = [&](const std::string &N) { return sum(T.durations(N, From)); };
  const std::vector<size_t> Mods = programsOf(Fns);

  // frontend: the workload's programs to RTL.
  {
    std::vector<double> Reps;
    for (int Rep = 0; Rep != 5; ++Rep) {
      const auto T0 = Clock::now();
      for (size_t P : Mods) {
        Scope Sp(T, T.name("compileMC"));
        check(compileMC(Progs[P].Info->Source).ok(), "compileMC");
      }
      Reps.push_back(secondsSince(T0) * 1e3);
    }
    add("frontend.compile_ms", median(Reps));
  }

  // core (enumerator and parallel engine): Jobs=1 and Jobs=4.
  std::vector<EnumerationResult> R1;
  double J1 = 0, J4 = 0;
  uint64_t Nodes = 0, Attempts = 0, Active = 0, Governor = 0;
  {
    Enumerator E1(*PM, enumConfig(1)), E4(*PM, enumConfig(4));
    for (const FnRef &F : Fns) {
      const Function &Root = Progs[F.Prog].M.Functions[F.Fn];
      auto T0 = Clock::now();
      {
        Scope Sp(T, T.name("Enumerator::enumerate/jobs1"));
        R1.push_back(E1.enumerate(Root));
      }
      J1 += secondsSince(T0);
      T0 = Clock::now();
      EnumerationResult R4;
      {
        Scope Sp(T, T.name("Enumerator::enumerate/jobs4"));
        R4 = E4.enumerate(Root);
      }
      J4 += secondsSince(T0);
      const EnumerationResult &R = R1.back();
      check(R.complete() && measureFn(R) == G.Fns[F.Key],
            "census enumeration of " + F.Key + " differs from its golden");
      check(dagDigest(R) == dagDigest(R4),
            "Jobs=4 DAG of " + F.Key + " differs from Jobs=1");
      Nodes += R.Nodes.size();
      Attempts += R.AttemptedPhases;
      for (const DagNode &N : R.Nodes)
        Active += N.Edges.size();
      Governor = std::max(Governor, R.ApproxMemoryBytes);
    }
  }

  // opt + analysis + core (canonical): replay every attempted phase of
  // every DAG node on a copy, then time each analysis once per node.
  uint64_t PhaseAttempts[NumPhases] = {}, PhaseActive[NumPhases] = {};
  {
    uint32_t NAttempt[NumPhases];
    for (int X = 0; X != NumPhases; ++X)
      NAttempt[X] = T.name(std::string("PhaseManager::attempt/") +
                           phaseCode(phaseByIndex(X)));
    const uint32_t NCleanup = T.name("cleanupCfg"), NCfg = T.name("Cfg::build"),
                   NLive = T.name("Liveness"), NDom = T.name("Dominators"),
                   NLoops = T.name("LoopInfo"),
                   NDeps = T.name("blockDependences"),
                   NCanon = T.name("canonicalize"),
                   NCfHash = T.name("controlFlowHash"),
                   NWalk = T.name("DagPaths::forEachInstance");
    CanonicalScratch Scratch;
    size_t Sink = 0;
    for (size_t I = 0; I != Fns.size(); ++I) {
      const EnumerationResult &R = R1[I];
      const Function &Root = Progs[Fns[I].Prog].M.Functions[Fns[I].Fn];
      uint64_t Mismatch = 0;
      Scope Walk(T, NWalk);
      DagPaths(R).forEachInstance(
          Root, *PM, nullptr, [&](uint32_t Id, const Function &Inst) {
            const DagNode &N = R.Nodes[Id];
            for (int X = 0; X != NumPhases; ++X) {
              if (!(N.AttemptedMask & (1u << X)))
                continue;
              const PhaseId P = phaseByIndex(X);
              Function Copy = Inst;
              bool Act;
              {
                Scope Sp(T, NAttempt[X]);
                Act = PM->attempt(P, Copy);
              }
              ++PhaseAttempts[X];
              PhaseActive[X] += Act;
              Mismatch += Act != N.activeAt(P);
            }
            {
              Function Copy = Inst;
              Scope Sp(T, NCleanup);
              Sink += cleanupCfg(Copy);
            }
            Cfg C;
            {
              Scope Sp(T, NCfg);
              C = Cfg::build(Inst);
            }
            {
              Scope Sp(T, NLive);
              Sink += Liveness(Inst, C).numRegs();
            }
            std::optional<Dominators> D;
            {
              Scope Sp(T, NDom);
              D.emplace(Inst, C);
            }
            {
              Scope Sp(T, NLoops);
              Sink += LoopInfo(Inst, C, *D).count();
            }
            {
              Scope Sp(T, NDeps);
              for (const BasicBlock &B : Inst.Blocks)
                Sink += blockDependences(B).size();
            }
            CanonicalForm CF;
            {
              Scope Sp(T, NCanon);
              CF = canonicalize(Inst, Scratch);
            }
            uint64_t Cf;
            {
              Scope Sp(T, NCfHash);
              Cf = controlFlowHash(Inst);
            }
            Mismatch += CF.Hash != N.Hash || Cf != N.CfHash;
          });
      check(Mismatch == 0, "replayed instances of " + Fns[I].Key +
                               " differ from the enumerated DAG");
    }
    // Consuming the analyses' results keeps them from being optimized out.
    std::printf("# census analysis checksum %zu\n", Sink);
  }
  uint64_t ReplayedAttempts = 0, ReplayedActive = 0;
  double ReplayNs = 0;
  for (int X = 0; X != NumPhases; ++X) {
    const std::string C(1, phaseCode(phaseByIndex(X)));
    const std::string Span = "PhaseManager::attempt/" + C;
    add("opt." + C + ".attempt_ns", med(Span));
    add("opt." + C + ".attempts", static_cast<double>(PhaseAttempts[X]));
    ReplayedAttempts += PhaseAttempts[X];
    ReplayedActive += PhaseActive[X];
    ReplayNs += tot(Span);
  }
  check(ReplayedAttempts == Attempts && ReplayedActive == Active,
        "replayed attempt counts differ from AttemptedPhases");
  add("opt.active_ratio", static_cast<double>(ReplayedActive) /
                              static_cast<double>(ReplayedAttempts));
  add("opt.cleanup_ns", med("cleanupCfg"));
  add("analysis.cfg_build_ns", med("Cfg::build"));
  add("analysis.liveness_ns", med("Liveness"));
  add("analysis.dominators_ns", med("Dominators"));
  add("analysis.loops_ns", med("LoopInfo"));
  add("analysis.block_deps_ns", med("blockDependences"));
  const double CanonNs = med("canonicalize");
  add("core.canonicalize_ns", CanonNs);
  add("core.cfhash_ns", med("controlFlowHash"));
  add("core.nodes", static_cast<double>(Nodes));
  add("core.attempts", static_cast<double>(Attempts));
  add("core.active", static_cast<double>(Active));
  // Every node but each root is reached by its first discovering edge;
  // the remaining active edges land on an existing node.
  add("core.dedup_ratio",
      static_cast<double>(Active - (Nodes - Fns.size())) /
          static_cast<double>(Active));
  add("core.enum_ns_per_attempt", J1 * 1e9 / static_cast<double>(Attempts));
  // What enumerate spends beyond the phases and canonicalization it runs,
  // estimated by subtracting their replayed cost; replay on fresh copies
  // can cost more than inside the engine, so the estimate can go negative.
  add("core.engine_ns_per_attempt",
      (J1 * 1e9 - ReplayNs - CanonNs * static_cast<double>(Active)) /
          static_cast<double>(Attempts));
  add("core.governor_bytes", static_cast<double>(Governor));
  add("core.jobs1_s", J1);
  add("core.parallel_speedup", J1 / J4);

  // core (compilers) + machine + sim.
  {
    InteractionAnalysis A;
    for (const EnumerationResult &R : R1) {
      Scope Sp(T, T.name("InteractionAnalysis::addFunction"));
      A.addFunction(R);
    }
    add("core.train_ms", tot("InteractionAnalysis::addFunction") / 1e6);
    ProbabilisticCompiler C(*PM, A);
    uint64_t PA = 0, PAct = 0, BA = 0, BAct = 0;
    std::vector<Module> Prob, Batch;
    for (const Program &P : Progs) {
      Prob.push_back(P.M);
      Batch.push_back(P.M);
    }
    for (const FnRef &F : Fns) {
      Function &Fp = Prob[F.Prog].Functions[F.Fn];
      Function &Fb = Batch[F.Prog].Functions[F.Fn];
      CompileStats S;
      {
        Scope Sp(T, T.name("ProbabilisticCompiler::compile"));
        S = C.compile(Fp);
      }
      PA += S.Attempted;
      PAct += S.Active;
      {
        Scope Sp(T, T.name("batchCompile"));
        S = batchCompile(*PM, Fb);
      }
      BA += S.Attempted;
      BAct += S.Active;
      for (Function *Fn : {&Fp, &Fb}) {
        Scope Sp(T, T.name("fixEntryExit"));
        fixEntryExit(*Fn);
      }
    }
    add("core.prob.attempts", static_cast<double>(PA));
    add("core.prob.active", static_cast<double>(PAct));
    add("core.batch.attempts", static_cast<double>(BA));
    add("core.batch.active", static_cast<double>(BAct));
    add("machine.fix_entry_exit_ns", med("fixEntryExit"));
    for (size_t P : Mods)
      for (const std::vector<Module> *Ms : {&Prob, &Batch}) {
        RunResult RR;
        {
          Scope Sp(T, T.name("Interpreter::run"));
          RR = Interpreter((*Ms)[P]).run("main", {});
        }
        check(measureProg(RR) == G.Progs[Progs[P].Info->Name],
              "census compiled " + std::string(Progs[P].Info->Name) +
                  " output differs");
      }
    add("sim.run_ms", med("Interpreter::run") / 1e6);
  }

  // store: encode/decode and save/load every enumerated result.
  {
    const std::string Dir = Opt.WorkDir + "/census-store";
    std::filesystem::remove_all(Dir);
    store::ArtifactStore S(Dir);
    std::string Err;
    check(S.prepare(Err), "store prepare: " + Err);
    const uint64_t Fp = store::configFingerprint(enumConfig(1));
    uint64_t Bytes = 0;
    for (size_t I = 0; I != Fns.size(); ++I) {
      const EnumerationResult &R = R1[I];
      ByteWriter W;
      {
        Scope Sp(T, T.name("store::encodeResult"));
        store::encodeResult(W, R);
      }
      Bytes += W.bytes().size();
      EnumerationResult D;
      bool Ok;
      {
        Scope Sp(T, T.name("store::decodeResult"));
        ByteReader Rd(W.bytes());
        Ok = store::decodeResult(Rd, D);
      }
      check(Ok && dagDigest(D) == dagDigest(R), "decodeResult round trip");
      const HashTriple Root =
          canonicalize(Progs[Fns[I].Prog].M.Functions[Fns[I].Fn]).Hash;
      {
        Scope Sp(T, T.name("ArtifactStore::saveResult"));
        Ok = S.saveResult(Root, Fp, R, Err);
      }
      check(Ok, "saveResult: " + Err);
      EnumerationResult L;
      store::LoadStatus St;
      {
        Scope Sp(T, T.name("ArtifactStore::loadResult"));
        St = S.loadResult(Root, Fp, L, Err);
      }
      check(St == store::LoadStatus::Hit && dagDigest(L) == dagDigest(R),
            "loadResult round trip: " + Err);
    }
    add("store.encode_us", med("store::encodeResult") / 1e3);
    add("store.decode_us", med("store::decodeResult") / 1e3);
    add("store.save_ms", med("ArtifactStore::saveResult") / 1e6);
    add("store.load_ms", med("ArtifactStore::loadResult") / 1e6);
    add("store.bytes", static_cast<double>(Bytes));
  }

  // support: worker process spawn.
  for (int Rep = 0; Rep != 5; ++Rep) {
    SubprocessSpec Spec;
    Spec.Argv = {Opt.Posec, "--list-phases"};
    Spec.TimeoutMs = 60'000;
    SubprocessResult SR;
    {
      Scope Sp(T, T.name("runSubprocess"));
      SR = runSubprocess(Spec);
    }
    check(SR.ok(), "posec --list-phases");
  }
  add("support.spawn_ms", med("runSubprocess") / 1e6);

  // drive: the workload's programs swept into an empty store, then again.
  {
    const std::string Dir = Opt.WorkDir + "/census-sweep";
    std::filesystem::remove_all(Dir);
    drive::SupervisorOptions O = sweepOptions(Dir);
    uint64_t Ok = 0, Cached = 0;
    std::vector<double> ColdS;
    for (bool Cold : {true, false})
      for (size_t P : Mods) {
        O.Workload = Progs[P].Info->Name;
        drive::SweepReport R;
        const auto T0 = Clock::now();
        {
          Scope Sp(T, T.name("drive::superviseModule"));
          R = drive::superviseModule(*PM, Progs[P].M, O);
        }
        if (Cold)
          ColdS.push_back(secondsSince(T0));
        for (const drive::JobOutcome &J : R.Jobs) {
          Ok += J.Status == drive::JobStatus::Ok;
          Cached += J.Status == drive::JobStatus::Cached;
        }
        check(R.exitCode() == 0, "census sweep of " + O.Workload);
      }
    add("drive.module_s", median(ColdS));
    add("drive.jobs_ok", static_cast<double>(Ok));
    add("drive.jobs_cached", static_cast<double>(Cached));
  }
}

//===-- Reporting ---------------------------------------------------------===//

std::string number(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

const char *unitOf(const std::string &Name) {
  static const std::vector<std::pair<std::string, const char *>> Suffixes = {
      {"_s", "s"},          {"_ms", "ms"},         {"_us", "us"},
      {"_ns", "ns"},        {"_mb", "MB"},         {"_per_s", "1/s"},
      {"_ratio", "ratio"},  {"_speedup", "ratio"}, {"_frac", "ratio"},
      {"_bytes", "bytes"},  {".bytes", "bytes"},   {"_per_attempt", "ns"}};
  const char *Unit = "count";
  size_t Best = 0;
  for (const auto &[Suffix, U] : Suffixes)
    if (Name.size() > Suffix.size() && Suffix.size() > Best &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) == 0) {
      Unit = U;
      Best = Suffix.size();
    }
  return Unit;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<std::pair<std::string, double>> &M) {
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != M.size(); ++I)
    Out += (I ? ", \"" : "\"") + M[I].first + "\": {\"value\": " +
           number(M[I].second) + ", \"unit\": \"" + unitOf(M[I].first) +
           "\"}";
  std::printf("%s}}\n", Out.c_str());
}

int Bench::run() {
  G = readGoldens(Opt.GoldensPath);
  std::filesystem::create_directories(Opt.WorkDir);

  for (int I = 0; I != (Opt.Workload == "prob-compile" ? 3 : 5); ++I)
    timedSetUp();
  if (Opt.PerturbGolden) {
    // Negative control: one golden entry of the workload is made wrong.
    ++G.Fns[Fns.front().Key].Nodes;
    ++G.ProbCodeInsts;
  }

  std::vector<std::pair<std::string, double>> M;
  std::printf("# workload %s seed %llu: %zu functions\n",
              Opt.Workload.c_str(),
              static_cast<unsigned long long>(Opt.Seed), Fns.size());
  auto report = [](const char *Name, double V, const char *Unit,
                   size_t N = 0) {
    std::printf("# %-26s %14.4f %-5s", Name, V, Unit);
    std::printf(N ? " (n=%zu)\n" : "\n", N);
  };

  if (!Opt.Trace) {
    const LoopStats L = loop(Opt.Seconds);
    const std::vector<double> Raw = L.allOps(), Best = L.bestOps();
    // The fastest set-up, like the fastest repeat of each operation below:
    // a ms-scale set-up otherwise reads whichever core it happened to run
    // on, and cores of a shared machine differ by up to 40%.
    M = {{"setup_s",
          *std::min_element(SetupSeconds.begin(), SetupSeconds.end())},
         {"attempts_per_s",
          static_cast<double>(L.PassAttempts) / L.bestPass()},
         {"op_p50_us", percentile(Best, 0.5)},
         {"op_p90_us", percentile(Best, 0.9)},
         {"peak_rss_mb", peakRssMb(Opt.Workload == "sweep-store")}};
    for (const auto &[N, V] : M)
      report(N.c_str(), V, unitOf(N));
    std::printf("# samples: %zu set-ups, %zu passes, %zu operations over %zu "
                "inputs\n",
                SetupSeconds.size(), L.PassSeconds.size(), Raw.size(),
                Best.size());
    report("setup_median_s", median(SetupSeconds), "s", SetupSeconds.size());
    report("pass_s", median(L.PassSeconds), "s", L.PassSeconds.size());
    report("best_pass_s", L.bestPass(), "s");
    report("attempts_per_pass", static_cast<double>(L.PassAttempts), "count");
    report("raw_op_p50_us", percentile(Raw, 0.5), "us", Raw.size());
    report("raw_op_p90_us", percentile(Raw, 0.9), "us", Raw.size());
    // The workload's own names for its measurements.
    if (Opt.Workload == "prob-compile") {
      report("prob_compile_p50_us", percentile(Raw, 0.5), "us", Raw.size());
      report("prob_compile_p99_us", percentile(Raw, 0.99), "us", Raw.size());
      report("batch_compile_p50_us", percentile(L.BatchUs, 0.5), "us",
             L.BatchUs.size());
      report("prob_code_insts", static_cast<double>(L.ProbCodeInsts),
             "insts");
      report("prob_dyn_insts", static_cast<double>(L.ProbDynInsts), "insts");
    }
    if (Opt.Workload == "sweep-store") {
      report("sweep_cold_s", median(L.ColdS), "s", L.ColdS.size());
      report("sweep_warm_ms", median(L.WarmMs), "ms", L.WarmMs.size());
    }
    report("failed_frac",
           static_cast<double>(Failed) / static_cast<double>(Attempted),
           "ratio", Attempted);
  } else {
    // Untraced then traced halves of the loop: the overhead of tracing.
    const LoopStats Plain = loop(Opt.Seconds / 2);
    T.On = true;
    const LoopStats Traced = loop(Opt.Seconds / 2);
    census(M);
    T.On = false;
    M.push_back({"trace.untraced_pass_s", Plain.bestPass()});
    M.push_back({"trace.traced_pass_s", Traced.bestPass()});
    M.push_back({"trace.overhead_ratio",
                 Traced.bestPass() / Plain.bestPass()});
    M.push_back({"trace.spans", static_cast<double>(T.size())});
    M.push_back({"failed_frac", static_cast<double>(Failed) /
                                    static_cast<double>(Attempted)});
    const std::string Path =
        Opt.TraceFile.empty() ? Opt.WorkDir + "/trace.csv" : Opt.TraceFile;
    if (!T.write(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    for (const auto &[N, V] : M)
      report(N.c_str(), V, unitOf(N));
  }
  printResult(Failed == 0, Attempted, Failed, M);
  return 0;
}

/// Prints goldens.txt for the current program: every function's Table 3
/// row and DAG digest at Jobs=1, every unoptimized program's output, and
/// the probabilistic compiler's code-size and dynamic-count totals.
int Bench::writeGoldens() {
  std::vector<Program> Ps = compileSuite();
  PhaseManager PM;
  Enumerator E(PM, enumConfig(1));
  InteractionAnalysis IA;
  std::printf("# kind key nodes attempted leaves len min_leaf max_leaf "
              "digest(hex)\n");
  uint64_t Nodes = 0, Attempts = 0;
  for (const FnRef &F : suiteFunctions(Ps)) {
    EnumerationResult R = E.enumerate(Ps[F.Prog].M.Functions[F.Fn]);
    if (!R.complete())
      throw std::runtime_error(F.Key + " did not complete");
    IA.addFunction(R);
    const FnGolden G = measureFn(R);
    Nodes += G.Nodes;
    Attempts += G.Attempted;
    std::printf("fn %s %llu %llu %llu %llu %llu %llu %016llx\n", F.Key.c_str(),
                (unsigned long long)G.Nodes, (unsigned long long)G.Attempted,
                (unsigned long long)G.Leaves, (unsigned long long)G.Len,
                (unsigned long long)G.MinLeaf, (unsigned long long)G.MaxLeaf,
                (unsigned long long)G.Digest);
  }
  std::printf("# suite totals: %llu nodes, %llu attempted phases\n",
              (unsigned long long)Nodes, (unsigned long long)Attempts);
  std::printf("# kind program return output_digest(hex)\n");
  ProbabilisticCompiler PC(PM, IA);
  uint64_t Code = 0, Dyn = 0;
  for (Program &P : Ps) {
    const ProgGolden G = measureProg(Interpreter(P.M).run("main", {}));
    std::printf("prog %s %lld %016llx\n", P.Info->Name, (long long)G.Ret,
                (unsigned long long)G.OutDigest);
    for (Function &F : P.M.Functions) {
      PC.compile(F);
      fixEntryExit(F);
      Code += F.instructionCount();
    }
    Dyn += Interpreter(P.M).run("main", {}).DynamicInsts;
  }
  std::printf("# kind prob_code_insts prob_dyn_insts\n");
  std::printf("prob %llu %llu\n", (unsigned long long)Code,
              (unsigned long long)Dyn);
  return 0;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: pose_perfbench --workload "
               "enum-suite|enum-wide|prob-compile|sweep-store --seed N "
               "--seconds S --trace 0|1 --posec PATH [--goldens FILE] "
               "[--workdir DIR] [--trace-file FILE] [--perturb-golden]\n"
               "       pose_perfbench --write-goldens\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (A == "--write-goldens")
      return Bench::writeGoldens();
    if (A == "--perturb-golden") {
      O.PerturbGolden = true;
      continue;
    }
    if (I + 1 == Argc)
      return usage(("missing value for " + A).c_str());
    const std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::stoull(V);
    else if (A == "--seconds")
      O.Seconds = std::stod(V);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--goldens")
      O.GoldensPath = V;
    else if (A == "--posec")
      O.Posec = V;
    else if (A == "--workdir")
      O.WorkDir = V;
    else if (A == "--trace-file")
      O.TraceFile = V;
    else
      return usage(("unknown flag " + A).c_str());
  }
  if (O.Workload != "enum-suite" && O.Workload != "enum-wide" &&
      O.Workload != "prob-compile" && O.Workload != "sweep-store")
    return usage("unknown workload");
  if (O.Posec.empty() || O.Seconds <= 0)
    return usage("--posec and a positive --seconds are required");
  try {
    return Bench(std::move(O)).run();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
