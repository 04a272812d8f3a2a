//===- ProgramGenerator.h - Random MC program generator --------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef POSE_TESTS_COMMON_PROGRAMGENERATOR_H
#define POSE_TESTS_COMMON_PROGRAMGENERATOR_H

#include "src/support/Rng.h"

#include <string>

namespace pose {
namespace testhelpers {

/// Random MC program generator. Loops are always bounded counting loops
/// over depth-indexed counters that are never assignment targets (so they
/// terminate), divisions guard their divisors with |1, and arrays are
/// indexed modulo their size, so generated programs are trap-free.
class ProgramGenerator {
public:
  explicit ProgramGenerator(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    Src.clear();
    NumGlobals = 2 + static_cast<int>(R.below(3));
    for (int I = 0; I != NumGlobals; ++I) {
      Src += "int g" + std::to_string(I) + " = " +
             std::to_string(R.range(-50, 50)) + ";\n";
    }
    Src += "int arr[8] = {" + std::to_string(R.range(0, 9));
    for (int I = 1; I != 8; ++I)
      Src += "," + std::to_string(R.range(0, 9));
    Src += "};\n";

    NumFuncs = 1 + static_cast<int>(R.below(3));
    for (int I = 0; I != NumFuncs; ++I)
      genFunction(I);

    Src += "int main() {\n";
    for (int I = 0; I != NumFuncs; ++I)
      Src += "  out(f" + std::to_string(I) + "(" +
             std::to_string(R.range(-5, 20)) + ", " +
             std::to_string(R.range(-5, 20)) + "));\n";
    for (int I = 0; I != NumGlobals; ++I)
      Src += "  out(g" + std::to_string(I) + ");\n";
    Src += "  return 0;\n}\n";
    return Src;
  }

private:
  Rng R;
  std::string Src;
  int NumGlobals = 0;
  int NumFuncs = 0;
  int LoopDepth = 0;  // Counters v0..v2 belong to loop levels.

  /// Readable scalar: parameters, the six locals, or a global.
  std::string readVar() {
    int Pick = static_cast<int>(R.below(8 + NumGlobals));
    if (Pick == 0)
      return "a";
    if (Pick == 1)
      return "b";
    if (Pick < 8)
      return "v" + std::to_string(Pick - 2);
    return "g" + std::to_string(Pick - 8);
  }

  /// Writable scalar: never a loop counter (v0..v2), which guarantees
  /// loop termination.
  std::string writeVar() {
    int Pick = static_cast<int>(R.below(5 + NumGlobals));
    if (Pick == 0)
      return "a";
    if (Pick == 1)
      return "b";
    if (Pick < 5)
      return "v" + std::to_string(Pick + 1); // v3..v5
    return "g" + std::to_string(Pick - 5);
  }

  std::string expr(int Depth) {
    switch (R.below(Depth > 3 ? 2 : 7)) {
    case 0:
      return std::to_string(R.range(-99, 99));
    case 1:
      return readVar();
    case 2: {
      static const char *Ops[] = {"+", "-", "*", "&", "|", "^"};
      return "(" + expr(Depth + 1) + " " + Ops[R.below(6)] + " " +
             expr(Depth + 1) + ")";
    }
    case 3: {
      // Guarded division/remainder: divisor forced nonzero via |1.
      const char *Op = R.below(2) ? "/" : "%";
      return "(" + expr(Depth + 1) + " " + Op + " ((" + expr(Depth + 1) +
             " | 1)))";
    }
    case 4: {
      static const char *Shifts[] = {"<<", ">>", ">>>"};
      return "(" + expr(Depth + 1) + " " + Shifts[R.below(3)] + " " +
             std::to_string(R.below(31)) + ")";
    }
    case 5:
      return "arr[(" + expr(Depth + 1) + ") & 7]";
    default: {
      static const char *Rels[] = {"<", "<=", "==", "!=", ">", ">="};
      return "(" + expr(Depth + 1) + " " + Rels[R.below(6)] + " " +
             expr(Depth + 1) + ")";
    }
    }
  }

  void statement(int Indent, int Depth) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    switch (R.below(Depth > 2 ? 2 : 6)) {
    case 0:
      Src += Pad + writeVar() + " = " + expr(0) + ";\n";
      return;
    case 1:
      Src += Pad + "arr[(" + expr(1) + ") & 7] = " + expr(0) + ";\n";
      return;
    case 2: {
      Src += Pad + "if (" + expr(0) + ") {\n";
      block(Indent + 1, Depth + 1);
      if (R.below(2)) {
        Src += Pad + "} else {\n";
        block(Indent + 1, Depth + 1);
      }
      Src += Pad + "}\n";
      return;
    }
    case 3: {
      if (LoopDepth >= 3) {
        Src += Pad + writeVar() + " = " + expr(0) + ";\n";
        return;
      }
      // Bounded counting loop over the depth-indexed counter.
      std::string I = "v" + std::to_string(LoopDepth);
      Src += Pad + "for (" + I + " = 0; " + I + " < " +
             std::to_string(3 + R.below(8)) + "; " + I + " = " + I +
             " + 1) {\n";
      ++LoopDepth;
      block(Indent + 1, Depth + 1);
      --LoopDepth;
      Src += Pad + "}\n";
      return;
    }
    case 4:
      if (LoopDepth > 0 && R.below(4) == 0) {
        Src += Pad + (R.below(2) ? "break;\n" : "continue;\n");
        return;
      }
      Src += Pad + writeVar() + " = " + expr(0) + ";\n";
      return;
    default:
      Src += Pad + "out(" + expr(0) + ");\n";
      return;
    }
  }

  void block(int Indent, int Depth) {
    int N = 1 + static_cast<int>(R.below(3));
    for (int I = 0; I != N; ++I)
      statement(Indent, Depth);
  }

  void genFunction(int Index) {
    LoopDepth = 0;
    Src += "int f" + std::to_string(Index) + "(int a, int b) {\n";
    for (int V = 0; V != 6; ++V)
      Src += "  int v" + std::to_string(V) + " = " +
             std::to_string(R.range(-9, 9)) + ";\n";
    block(1, 0);
    Src += "  return " + expr(0) + ";\n}\n";
  }
};

} // namespace testhelpers
} // namespace pose

#endif // POSE_TESTS_COMMON_PROGRAMGENERATOR_H
