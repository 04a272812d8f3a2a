//===- Parse.h - Textual RTL parser ----------------------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the textual RTL syntax produced by the printer, so functions can
/// round-trip through text. It serves the IR-level test cases, which
/// write functions as RTL text; no tool reads RTL.
///
/// Grammar (one construct per line; '#' starts a comment):
///
///   function NAME(P1,P2,...) [SLOTS] {assigned,allocated}
///   Lnn:
///     r[N]=OPERAND;              r[N]=A OP B;        r[N]=-A;  r[N]=~A;
///     r[N]=&S1;  r[N]=&@2;       r[N]=M[BASE+OFF];   M[BASE+OFF]=r[N];
///     IC=A?B;    PC=IC<0,Lnn;    PC=Lnn;
///     r[N]=call @G(A,B);         call @G();          ret A;  ret;
///     prologue;  epilogue;
///
/// SLOTS: comma list of name:size (scalar) or name[size] (array); the
/// first entries matching the parameter list become parameters.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_IR_PARSE_H
#define POSE_IR_PARSE_H

#include <string>

namespace pose {

class Function;

/// Parses one function from \p Text into \p Out. Returns an empty string
/// on success, otherwise a "line N: message" diagnostic. The resulting
/// function has counters recomputed and passes the verifier (verification
/// failures are reported as errors).
std::string parseFunction(const std::string &Text, Function &Out);

} // namespace pose

#endif // POSE_IR_PARSE_H
