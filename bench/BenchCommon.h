//===- BenchCommon.h - Shared experiment-driver helpers --------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the experiment drivers in bench/: compiling the
/// workload suite, enumerating every function, and parsing each driver's
/// flag table.
/// Each bench binary regenerates one table or figure of the paper; see
/// DESIGN.md for the complete index.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_BENCH_BENCHCOMMON_H
#define POSE_BENCH_BENCHCOMMON_H

#include "src/core/Enumerator.h"
#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/support/Flags.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace pose {
namespace bench {

/// One workload program compiled to RTL.
struct CompiledWorkload {
  const Workload *Info = nullptr;
  Module M;
};

/// Compiles the whole workload suite, aborting loudly on any diagnostic.
inline std::vector<CompiledWorkload> compileAllWorkloads() {
  std::vector<CompiledWorkload> Out;
  for (const Workload &W : allWorkloads()) {
    CompileResult R = compileMC(W.Source);
    if (!R.ok()) {
      std::fprintf(stderr, "workload %s failed to compile:\n%s", W.Name,
                   R.diagText().c_str());
      std::exit(1);
    }
    CompiledWorkload C;
    C.Info = &W;
    C.M = std::move(R.M);
    Out.push_back(std::move(C));
  }
  return Out;
}

/// Single-letter program tag used in the paper's function names
/// ("main(b)" for bitcount's main, …).
inline char programTag(const std::string &Name) {
  if (Name == "bitcount")
    return 'b';
  if (Name == "dijkstra")
    return 'd';
  if (Name == "fft")
    return 'f';
  if (Name == "jpeg")
    return 'j';
  if (Name == "sha")
    return 'h';
  if (Name == "stringsearch")
    return 's';
  if (Name == "crc32")
    return 'c';
  return '?';
}

/// --budget=N: the per-level active-sequence cap of the enumeration.
inline Flag budgetFlag(uint64_t &Out) {
  return uintFlag("--budget", Out, 1, UINT64_MAX,
                  "enumeration budget (active sequences per level)");
}

/// Parses the driver's command line against the flag table \p R. A bad
/// flag or value, or any positional argument, prints the error and the
/// usage and exits 2.
template <class... Rows>
void parseBenchFlags(int Argc, char **Argv, Rows &&...R) {
  const std::vector<Flag> Table = flagTable(std::forward<Rows>(R)...);
  std::vector<std::string> Args;
  std::string Error;
  if (parseFlags(Table, Argc, Argv, Args, nullptr, Error) && !Args.empty())
    Error = "unexpected argument '" + Args.front() + "'";
  if (Error.empty())
    return;
  const std::string Synopsis = std::string(Argv[0]) + " [options]";
  std::fprintf(stderr, "%s\n%s", Error.c_str(),
               renderUsage(Synopsis.c_str(), Table).c_str());
  std::exit(2);
}

} // namespace bench
} // namespace pose

#endif // POSE_BENCH_BENCHCOMMON_H
