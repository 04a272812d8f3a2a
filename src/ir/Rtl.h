//===- Rtl.h - Register Transfer List instructions ------------*- C++ -*-===//
//
// Part of POSE, a reproduction of Kulkarni et al., "Exhaustive Optimization
// Phase Order Space Exploration" (CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The low-level intermediate representation mirroring VPO's RTLs (Register
/// Transfer Lists). Every instruction is a single machine-level effect:
/// a register transfer, a memory access, a compare that sets the condition
/// code register IC, or a control transfer. All optimization phases operate
/// on this one representation, which is what lets them be reordered freely.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_IR_RTL_H
#define POSE_IR_RTL_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace pose {

/// Register numbers. Hardware registers are [0, FirstPseudoReg); pseudo
/// (virtual) registers produced by code generation are >= FirstPseudoReg.
/// The compulsory register-assignment phase maps pseudos onto hardware
/// registers.
using RegNum = uint32_t;

/// First pseudo register number; numbers below this denote hardware
/// registers of the (StrongARM-like) target.
constexpr RegNum FirstPseudoReg = 32;

/// Returns true if \p R denotes a hardware register.
inline bool isHardwareReg(RegNum R) { return R < FirstPseudoReg; }

/// RTL opcodes. The set is deliberately ARM-like and low level: one effect
/// per instruction, two source operands at most (plus the value operand of
/// a store), an immediate allowed where the target's encoding allows one.
enum class Op : uint8_t {
  Mov,   ///< dst = src0 (register or immediate)
  Lea,   ///< dst = address of src0 (stack slot or global)
  Add,   ///< dst = src0 + src1
  Sub,   ///< dst = src0 - src1
  Mul,   ///< dst = src0 * src1 (no immediate operand on the target)
  Div,   ///< dst = src0 / src1 (signed; no immediate operand)
  Rem,   ///< dst = src0 % src1 (signed; no immediate operand)
  And,   ///< dst = src0 & src1
  Or,    ///< dst = src0 | src1
  Xor,   ///< dst = src0 ^ src1
  Shl,   ///< dst = src0 << src1
  Shr,   ///< dst = src0 >> src1 (arithmetic)
  Ushr,  ///< dst = src0 >> src1 (logical)
  Neg,   ///< dst = -src0
  Not,   ///< dst = ~src0
  Load,  ///< dst = M[src0 + src1]; src0 is a register, slot, or global
  Store, ///< M[src0 + src1] = src2; src2 is a register or immediate
  Cmp,   ///< IC = src0 ? src1 (three-way compare into the condition reg)
  Branch,///< PC = IC <cond> -> label (conditional; falls through otherwise)
  Jump,  ///< PC = label (unconditional)
  Call,  ///< dst = call global(args...); dst may be absent
  Ret,   ///< return src0 (src0 may be absent for void returns)
  Prologue, ///< allocates the activation record (added by fix entry/exit)
  Epilogue, ///< frees the activation record (added by fix entry/exit)
};

/// Returns a short mnemonic for \p O (used by the printer).
const char *opName(Op O);

/// Condition codes tested by Branch against the IC register set by Cmp.
enum class Cond : uint8_t {
  None, ///< Not a conditional instruction.
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  ULt,
  ULe,
  UGt,
  UGe,
};

/// Returns the condition testing the opposite outcome of \p C.
Cond invertCond(Cond C);

/// Returns a printable name ("<", ">=u", ...) for \p C.
const char *condName(Cond C);

/// Kinds of instruction operands.
enum class OperandKind : uint8_t {
  None,   ///< Absent operand.
  Reg,    ///< Register (hardware or pseudo), Value = RegNum.
  Imm,    ///< 32-bit signed immediate, Value = the constant.
  Slot,   ///< Stack slot of the current function, Value = slot index.
  Global, ///< Module global (variable or function), Value = global id.
  Label,  ///< Basic-block label, Value = the block's label number.
};

/// A single instruction operand: a tagged 32-bit value.
struct Operand {
  OperandKind Kind = OperandKind::None;
  int32_t Value = 0;

  Operand() = default;
  Operand(OperandKind K, int32_t V) : Kind(K), Value(V) {}

  static Operand none() { return Operand(); }
  static Operand reg(RegNum R) {
    return Operand(OperandKind::Reg, static_cast<int32_t>(R));
  }
  static Operand imm(int32_t V) { return Operand(OperandKind::Imm, V); }
  static Operand slot(int32_t Index) {
    return Operand(OperandKind::Slot, Index);
  }
  static Operand global(int32_t Id) {
    return Operand(OperandKind::Global, Id);
  }
  static Operand label(int32_t L) { return Operand(OperandKind::Label, L); }

  bool isNone() const { return Kind == OperandKind::None; }
  bool isReg() const { return Kind == OperandKind::Reg; }
  bool isImm() const { return Kind == OperandKind::Imm; }
  bool isSlot() const { return Kind == OperandKind::Slot; }
  bool isGlobal() const { return Kind == OperandKind::Global; }
  bool isLabel() const { return Kind == OperandKind::Label; }

  /// Returns the register number; asserts this is a register operand.
  RegNum getReg() const {
    assert(isReg() && "operand is not a register");
    return static_cast<RegNum>(Value);
  }

  bool operator==(const Operand &O) const {
    return Kind == O.Kind && Value == O.Value;
  }
  bool operator!=(const Operand &O) const { return !(*this == O); }
};

/// One RTL: a single-effect instruction.
///
/// Operand roles by opcode:
///  - Mov/Neg/Not:  Dst = op(Src[0])
///  - Lea:          Dst = &Src[0] (Slot or Global)
///  - binary ops:   Dst = Src[0] op Src[1]
///  - Load:         Dst = M[Src[0] + Src[1]] (Src[1] is an Imm offset)
///  - Store:        M[Src[0] + Src[1]] = Src[2]
///  - Cmp:          IC = Src[0] ? Src[1]
///  - Branch:       if IC satisfies CC, PC = Src[0] (a Label)
///  - Jump:         PC = Src[0] (a Label)
///  - Call:         Dst = Src[0](Args...) (Src[0] is a Global; Dst optional)
///  - Ret:          return Src[0] (optional)
struct Rtl {
  Op Opcode = Op::Mov;
  Cond CC = Cond::None;
  Operand Dst;
  Operand Src[3];
  /// Call argument operands (registers or immediates). Empty for non-calls.
  std::vector<Operand> Args;

  Rtl() = default;
  explicit Rtl(Op O) : Opcode(O) {}

  bool isBinary() const {
    switch (Opcode) {
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Rem:
    case Op::And:
    case Op::Or:
    case Op::Xor:
    case Op::Shl:
    case Op::Shr:
    case Op::Ushr:
      return true;
    default:
      return false;
    }
  }

  /// Returns true for instructions that transfer control (must be last in
  /// their basic block).
  bool isControl() const {
    return Opcode == Op::Branch || Opcode == Op::Jump || Opcode == Op::Ret;
  }

  /// Returns true if the instruction writes the register in Dst.
  bool definesReg() const { return Dst.isReg(); }

  /// Returns true if the instruction writes the condition-code register IC.
  bool definesIC() const { return Opcode == Op::Cmp; }

  /// Returns true if the instruction reads the condition-code register IC.
  bool usesIC() const { return Opcode == Op::Branch; }

  /// Returns true if the instruction may read memory.
  bool readsMemory() const { return Opcode == Op::Load; }

  /// Returns true if the instruction may write memory or has side effects
  /// beyond its register results (and thus can never be deleted as dead).
  bool hasSideEffects() const {
    return Opcode == Op::Store || Opcode == Op::Call || isControl() ||
           Opcode == Op::Prologue || Opcode == Op::Epilogue;
  }

  /// Calls \p Fn for every register read by this instruction.
  template <typename FnT> void forEachUsedReg(FnT Fn) const {
    for (const Operand &S : Src)
      if (S.isReg())
        Fn(S.getReg());
    for (const Operand &A : Args)
      if (A.isReg())
        Fn(A.getReg());
  }

  /// Calls \p Fn with a mutable reference to every register operand that is
  /// a use (sources and call arguments), for register rewriting.
  template <typename FnT> void forEachUseOperand(FnT Fn) {
    for (Operand &S : Src)
      if (S.isReg())
        Fn(S);
    for (Operand &A : Args)
      if (A.isReg())
        Fn(A);
  }

  bool operator==(const Rtl &O) const {
    if (Opcode != O.Opcode || CC != O.CC || Dst != O.Dst ||
        Args != O.Args)
      return false;
    for (int I = 0; I < 3; ++I)
      if (Src[I] != O.Src[I])
        return false;
    return true;
  }
  bool operator!=(const Rtl &O) const { return !(*this == O); }
};

/// Convenience constructors for the common instruction shapes.
namespace rtl {

inline Rtl mov(Operand Dst, Operand Src0) {
  Rtl R(Op::Mov);
  R.Dst = Dst;
  R.Src[0] = Src0;
  return R;
}

inline Rtl lea(Operand Dst, Operand Target) {
  Rtl R(Op::Lea);
  R.Dst = Dst;
  R.Src[0] = Target;
  return R;
}

inline Rtl binary(Op O, Operand Dst, Operand A, Operand B) {
  Rtl R(O);
  assert(R.isBinary() && "not a binary opcode");
  R.Dst = Dst;
  R.Src[0] = A;
  R.Src[1] = B;
  return R;
}

inline Rtl unary(Op O, Operand Dst, Operand A) {
  Rtl R(O);
  R.Dst = Dst;
  R.Src[0] = A;
  return R;
}

inline Rtl load(Operand Dst, Operand Base, int32_t Offset) {
  Rtl R(Op::Load);
  R.Dst = Dst;
  R.Src[0] = Base;
  R.Src[1] = Operand::imm(Offset);
  return R;
}

inline Rtl store(Operand Base, int32_t Offset, Operand Value) {
  Rtl R(Op::Store);
  R.Src[0] = Base;
  R.Src[1] = Operand::imm(Offset);
  R.Src[2] = Value;
  return R;
}

inline Rtl cmp(Operand A, Operand B) {
  Rtl R(Op::Cmp);
  R.Src[0] = A;
  R.Src[1] = B;
  return R;
}

inline Rtl branch(Cond C, int32_t Label) {
  Rtl R(Op::Branch);
  R.CC = C;
  R.Src[0] = Operand::label(Label);
  return R;
}

inline Rtl jump(int32_t Label) {
  Rtl R(Op::Jump);
  R.Src[0] = Operand::label(Label);
  return R;
}

inline Rtl call(Operand Dst, int32_t GlobalId, std::vector<Operand> Args) {
  Rtl R(Op::Call);
  R.Dst = Dst;
  R.Src[0] = Operand::global(GlobalId);
  R.Args = std::move(Args);
  return R;
}

inline Rtl ret(Operand Value) {
  Rtl R(Op::Ret);
  R.Src[0] = Value;
  return R;
}

} // namespace rtl

} // namespace pose

#endif // POSE_IR_RTL_H
