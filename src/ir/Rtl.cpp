//===- Rtl.cpp - Register Transfer List instructions ---------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/ir/Rtl.h"

using namespace pose;

const char *pose::opName(Op O) {
  switch (O) {
  case Op::Mov:
    return "mov";
  case Op::Lea:
    return "lea";
  case Op::Add:
    return "add";
  case Op::Sub:
    return "sub";
  case Op::Mul:
    return "mul";
  case Op::Div:
    return "div";
  case Op::Rem:
    return "rem";
  case Op::And:
    return "and";
  case Op::Or:
    return "or";
  case Op::Xor:
    return "xor";
  case Op::Shl:
    return "shl";
  case Op::Shr:
    return "shr";
  case Op::Ushr:
    return "ushr";
  case Op::Neg:
    return "neg";
  case Op::Not:
    return "not";
  case Op::Load:
    return "load";
  case Op::Store:
    return "store";
  case Op::Cmp:
    return "cmp";
  case Op::Branch:
    return "branch";
  case Op::Jump:
    return "jump";
  case Op::Call:
    return "call";
  case Op::Ret:
    return "ret";
  case Op::Prologue:
    return "prologue";
  case Op::Epilogue:
    return "epilogue";
  }
  assert(false && "unknown opcode");
  return "?";
}

Cond pose::invertCond(Cond C) {
  switch (C) {
  case Cond::None:
    return Cond::None;
  case Cond::Eq:
    return Cond::Ne;
  case Cond::Ne:
    return Cond::Eq;
  case Cond::Lt:
    return Cond::Ge;
  case Cond::Le:
    return Cond::Gt;
  case Cond::Gt:
    return Cond::Le;
  case Cond::Ge:
    return Cond::Lt;
  case Cond::ULt:
    return Cond::UGe;
  case Cond::ULe:
    return Cond::UGt;
  case Cond::UGt:
    return Cond::ULe;
  case Cond::UGe:
    return Cond::ULt;
  }
  assert(false && "unknown condition");
  return Cond::None;
}

const char *pose::condName(Cond C) {
  switch (C) {
  case Cond::None:
    return "";
  case Cond::Eq:
    return "==";
  case Cond::Ne:
    return "!=";
  case Cond::Lt:
    return "<";
  case Cond::Le:
    return "<=";
  case Cond::Gt:
    return ">";
  case Cond::Ge:
    return ">=";
  case Cond::ULt:
    return "<u";
  case Cond::ULe:
    return "<=u";
  case Cond::UGt:
    return ">u";
  case Cond::UGe:
    return ">=u";
  }
  assert(false && "unknown condition");
  return "?";
}

bool pose::foldConstant(Rtl &I) {
  std::optional<int32_t> V;
  if (I.isBinary() && I.Src[0].isImm() && I.Src[1].isImm())
    V = evalBinary(I.Opcode, I.Src[0].Value, I.Src[1].Value);
  else if ((I.Opcode == Op::Neg || I.Opcode == Op::Not) && I.Src[0].isImm())
    V = evalUnary(I.Opcode, I.Src[0].Value);
  if (!V)
    return false;
  I = rtl::mov(I.Dst, Operand::imm(*V));
  return true;
}
