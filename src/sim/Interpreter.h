//===- Interpreter.h - RTL interpreter -------------------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes RTL modules directly. This is the reproduction's stand-in for
/// the paper's StrongARM SA-100 testbed: it measures dynamic instruction
/// counts, the performance proxy the paper itself proposes for evaluating
/// function instances (Section 7), and it provides the oracle for the
/// differential tests that check every optimization phase preserves
/// semantics under every ordering.
///
/// The machine is word-addressed: every value and address is a 32-bit
/// word. Globals live at low addresses, stack frames grow downward from
/// the top of the arena. All registers are callee-saved; call arguments
/// and results are explicit operands of the Call RTL.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SIM_INTERPRETER_H
#define POSE_SIM_INTERPRETER_H

#include "src/ir/Function.h"

#include <map>
#include <string>
#include <vector>

namespace pose {

/// Result of one simulated execution.
struct RunResult {
  bool Ok = false;
  std::string Error;            ///< Trap description when !Ok.
  int32_t ReturnValue = 0;
  uint64_t DynamicInsts = 0;    ///< Total RTLs executed.
  std::vector<int32_t> Output;  ///< Words written via the out() builtin.
  /// When profiling was requested (setProfileFunction): number of times
  /// each basic block of the profiled function executed, indexed by block
  /// position. Summed over all invocations of that function in the run.
  std::vector<uint64_t> BlockCounts;

  /// Stable classification of a trap, independent of which function it
  /// happened in: the Error text with the trailing " in <function>"
  /// context stripped ("load out of bounds", "division by zero", ...).
  /// Empty for successful runs.
  std::string trapKind() const {
    if (Ok)
      return std::string();
    const size_t Pos = Error.rfind(" in ");
    return Pos == std::string::npos ? Error : Error.substr(0, Pos);
  }

  /// Returns true if two runs produced identical observable behaviour.
  /// Trapping runs must also trap for the same reason: two traps with
  /// different causes (a division by zero vs. an out-of-bounds store)
  /// are different behaviors even when their partial output agrees.
  bool sameBehavior(const RunResult &O) const {
    return Ok == O.Ok && ReturnValue == O.ReturnValue &&
           Output == O.Output && (Ok || trapKind() == O.trapKind());
  }
};

/// Interprets functions of one module. Function bodies can be overridden
/// per run, which is how individual phase-ordering instances of a single
/// function are evaluated inside an otherwise fixed program.
class Interpreter {
public:
  /// \p MemWords is the size of the flat memory arena.
  explicit Interpreter(const Module &M, size_t MemWords = 1u << 22);

  /// Substitutes \p Body (not owned; must outlive the interpreter or be
  /// reset) for the module's definition of \p Name in subsequent runs.
  /// Passing nullptr removes the override.
  void overrideFunction(const std::string &Name, const Function *Body);

  /// Requests per-block execution counts for \p Name in subsequent runs
  /// (empty string disables). This powers the paper's Section 7 idea of
  /// inferring dynamic instruction counts across function instances that
  /// share a control flow.
  void setProfileFunction(const std::string &Name) { ProfileName = Name; }

  /// Runs function \p Name with \p Args. Re-initializes global memory
  /// first, so repeated runs are independent. Traps (out-of-bounds access,
  /// division by zero, step-limit exhaustion, stack overflow) produce
  /// Ok=false with an explanatory Error.
  RunResult run(const std::string &Name, const std::vector<int32_t> &Args,
                uint64_t StepLimit = 100'000'000);

private:
  const Module &M;
  size_t MemWords;
  std::vector<int32_t> Mem;
  std::vector<int32_t> GlobalBase; ///< Word address per global id.
  std::map<std::string, const Function *> Overrides;
  std::string ProfileName;

  struct ExecState {
    uint64_t Steps = 0;
    uint64_t StepLimit = 0;
    std::vector<int32_t> Output;
    std::string Error;
    int Depth = 0;
    const Function *ProfileTarget = nullptr;
    std::vector<uint64_t> BlockCounts;
  };

  const Function *bodyFor(int32_t GlobalId) const;
  bool callFunction(const Function &F, const std::vector<int32_t> &Args,
                    int32_t &Result, ExecState &St, int32_t FrameTop);
};

} // namespace pose

#endif // POSE_SIM_INTERPRETER_H
