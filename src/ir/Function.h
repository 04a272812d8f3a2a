//===- Function.h - Basic blocks, functions, modules ----------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Container classes for RTL code. A Function owns its basic blocks in
/// layout order; block fall-through is implicit (a block without a final
/// Jump/Ret continues into the next block in layout order), exactly as in
/// VPO. Functions are value types: the exhaustive enumerator copies them
/// freely to hold one function instance per frontier node.
///
/// Copying is copy-on-write (docs/PERFORMANCE.md "memory architecture"):
/// a copied Function shares its basic blocks with the original through
/// refcounted Cow boxes, and a block is materialized (deep-copied) only at
/// the first mutation. A phase attempt that turns out dormant therefore
/// copies nothing, which is what makes the enumerator's per-attempt
/// working copies nearly free. The discipline that keeps this true is
/// enforced by the BlockList API: reads go through const access (shared),
/// and every mutation is an explicit call (mut(), eraseAt(), ...), so a
/// phase cannot unshare storage by accident.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_IR_FUNCTION_H
#define POSE_IR_FUNCTION_H

#include "src/ir/Rtl.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace pose {

/// A basic block: a label plus straight-line RTLs. Control transfers may
/// appear only as the last instruction.
struct BasicBlock {
  /// Stable label number unique within the function. Never reused, so
  /// branch operands stay valid as blocks are added and removed.
  int32_t Label = 0;
  std::vector<Rtl> Insts;

  BasicBlock() = default;
  explicit BasicBlock(int32_t L) : Label(L) {}

  bool empty() const { return Insts.empty(); }

  /// Returns the terminating control transfer, or nullptr if the block
  /// falls through.
  const Rtl *terminator() const {
    if (!Insts.empty() && Insts.back().isControl())
      return &Insts.back();
    return nullptr;
  }
  Rtl *terminator() {
    if (!Insts.empty() && Insts.back().isControl())
      return &Insts.back();
    return nullptr;
  }
};

/// Copy-on-write box: copies share one refcounted T, and mut() returns a
/// writable T, copying it first while another box still shares it. The
/// count is atomic because the parallel enumerator's workers copy and
/// drop boxes of the same shared parent concurrently. A default or
/// moved-from box is empty; mut() fills it with a default T.
template <class T> class Cow {
public:
  Cow() = default;
  explicit Cow(T V) : N(new Node(std::move(V))) {}
  Cow(const Cow &O) : N(O.N) { retain(); }
  Cow(Cow &&O) noexcept : N(std::exchange(O.N, nullptr)) {}
  Cow &operator=(const Cow &O) {
    if (N != O.N) {
      release();
      N = O.N;
      retain();
    }
    return *this;
  }
  Cow &operator=(Cow &&O) noexcept {
    if (this != &O) {
      release();
      N = std::exchange(O.N, nullptr);
    }
    return *this;
  }
  ~Cow() { release(); }

  bool empty() const { return N == nullptr; }
  /// The shared value; the box must not be empty.
  const T &operator*() const { return N->Value; }
  const T *operator->() const { return &N->Value; }

  /// Writable value. A count of 1 proves this box is the sole owner: no
  /// other thread can be copying through it concurrently.
  T &mut() {
    if (!N)
      N = new Node(T());
    else if (N->Refs.load(std::memory_order_acquire) != 1)
      *this = Cow(T(N->Value));
    return N->Value;
  }

  /// Stable identity of the shared storage (nullptr when empty), equal
  /// for boxes that share one value. Used by sharing-aware accounting and
  /// the COW tests; never by anything whose output must be deterministic.
  const void *identity() const { return N; }

private:
  struct Node {
    explicit Node(T V) : Value(std::move(V)) {}
    std::atomic<uint32_t> Refs{1};
    T Value;
  };

  void retain() {
    if (N)
      N->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (N && N->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete N;
  }

  Node *N = nullptr;
};

/// The block sequence of a function, one copy-on-write box per block.
///
/// Reads are const-only and shared: operator[] and iteration yield
/// const references, and they work on non-const lists too. Mutation is
/// always an explicit call — mut(I) for in-place edits, index-based
/// structural operations (eraseAt, insertAt, rotate, ...) otherwise —
/// so every site that can materialize a block is visible in the source.
/// There is deliberately no mutable operator[] or mutable iteration.
class BlockList {
public:
  class const_iterator {
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = BasicBlock;
    using difference_type = std::ptrdiff_t;
    using pointer = const BasicBlock *;
    using reference = const BasicBlock &;

    const_iterator() = default;
    explicit const_iterator(const Cow<BasicBlock> *P) : P(P) {}
    reference operator*() const { return **P; }
    pointer operator->() const { return &**P; }
    const_iterator &operator++() {
      ++P;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator T = *this;
      ++P;
      return T;
    }
    const_iterator &operator--() {
      --P;
      return *this;
    }
    const_iterator operator+(difference_type D) const {
      return const_iterator(P + D);
    }
    const_iterator operator-(difference_type D) const {
      return const_iterator(P - D);
    }
    difference_type operator-(const const_iterator &O) const {
      return P - O.P;
    }
    bool operator==(const const_iterator &O) const { return P == O.P; }
    bool operator!=(const const_iterator &O) const { return P != O.P; }

  private:
    const Cow<BasicBlock> *P = nullptr;
  };

  size_t size() const { return H.size(); }
  bool empty() const { return H.empty(); }

  const BasicBlock &operator[](size_t I) const { return *H[I]; }
  const BasicBlock &front() const { return *H.front(); }
  const BasicBlock &back() const { return *H.back(); }

  const_iterator begin() const { return const_iterator(H.data()); }
  const_iterator end() const { return const_iterator(H.data() + H.size()); }

  /// Writable body of block \p I, unsharing it first if needed.
  BasicBlock &mut(size_t I) { return H[I].mut(); }
  BasicBlock &mutBack() { return H.back().mut(); }

  void push_back(BasicBlock B) { H.emplace_back(std::move(B)); }
  /// Appends a fresh (necessarily unique) block and returns its body.
  BasicBlock &emplace_back(int32_t Label) {
    H.emplace_back(BasicBlock(Label));
    return H.back().mut();
  }
  void pop_back() { H.pop_back(); }
  /// Shrinks, or grows with fresh empty blocks (deserialization fills
  /// them in via mut()).
  void resize(size_t N) {
    H.resize(std::min(N, H.size()));
    H.reserve(N);
    while (H.size() < N)
      H.emplace_back(BasicBlock());
  }

  void eraseAt(size_t I) {
    H.erase(H.begin() + static_cast<std::ptrdiff_t>(I));
  }
  void insertAt(size_t I, BasicBlock B) {
    H.insert(H.begin() + static_cast<std::ptrdiff_t>(I),
             Cow<BasicBlock>(std::move(B)));
  }
  /// std::rotate over the boxes: moves blocks [\p Middle, \p Last) in
  /// front of [\p First, \p Middle), copying nothing. This is how block
  /// reordering moves whole chains.
  void rotate(size_t First, size_t Middle, size_t Last);

  /// Shared-storage identity of block \p I (see Cow::identity).
  const void *identity(size_t I) const { return H[I].identity(); }

  /// Materializes every shared block (see Function::deepCopy).
  void unshareAll() {
    for (Cow<BasicBlock> &X : H)
      X.mut();
  }

private:
  std::vector<Cow<BasicBlock>> H;
};

/// Static description of one stack slot (local variable, parameter, or
/// compiler temporary) of a function. Addresses are in words: the MC
/// machine is word-addressed.
struct StackSlot {
  std::string Name;
  int32_t SizeWords = 1;
  /// True for arrays (or any slot whose address escapes): the register
  /// allocator may never promote such a slot to a register.
  bool IsArray = false;
  /// True for incoming parameters; the caller (or simulator) stores the
  /// argument value into the slot before entry.
  bool IsParam = false;
};

/// The stack-slot vector of a function, copy-on-write as a whole: slots
/// change rarely (spill insertion, codegen), so any mutation unshares the
/// whole vector. Same API discipline as BlockList: const reads shared,
/// explicit mutation.
class SlotList {
public:
  size_t size() const { return V.empty() ? 0 : V->size(); }
  bool empty() const { return size() == 0; }
  const StackSlot &operator[](size_t I) const { return (*V)[I]; }
  const StackSlot *begin() const { return V.empty() ? nullptr : V->data(); }
  const StackSlot *end() const {
    return V.empty() ? nullptr : V->data() + V->size();
  }

  StackSlot &mut(size_t I) { return V.mut()[I]; }
  void push_back(StackSlot S) { V.mut().push_back(std::move(S)); }
  void resize(size_t S) { V.mut().resize(S); }

  /// Shared-storage identity (nullptr when empty).
  const void *identity() const { return V.identity(); }
  void unshare() {
    if (!V.empty())
      (void)V.mut();
  }

private:
  Cow<std::vector<StackSlot>> V;
};

/// Per-function compiler state that is not derivable from the code bytes
/// but participates in instance identity (see Canonicalizer): which
/// compulsory/ordering milestones have happened.
struct PhaseState {
  /// Pseudo registers have been mapped to hardware registers. Evaluation
  /// order determination (phase o) is illegal once this is set.
  bool RegsAssigned = false;
  /// Register allocation (phase k) has been active at least once. Loop
  /// unrolling (g) and loop transformations (l) are illegal before this,
  /// since they analyze values in registers (paper, Section 3).
  bool RegAllocDone = false;

  uint8_t encode() const {
    return static_cast<uint8_t>(RegsAssigned) |
           static_cast<uint8_t>(RegAllocDone << 1);
  }
  bool operator==(const PhaseState &O) const {
    return RegsAssigned == O.RegsAssigned && RegAllocDone == O.RegAllocDone;
  }
};

/// A function: stack slots, blocks in layout order, and phase state.
/// Copyable by design (one instance per enumeration frontier node);
/// copies share block and slot storage copy-on-write.
class Function {
public:
  std::string Name;
  /// Number of leading slots that are parameters (slot i = parameter i).
  int32_t NumParams = 0;
  /// True if the function returns a value.
  bool ReturnsValue = false;
  SlotList Slots;
  BlockList Blocks;
  PhaseState State;

  /// Allocates a fresh pseudo register.
  RegNum makePseudo() { return NextPseudo++; }

  /// Returns one past the highest pseudo register ever allocated.
  RegNum pseudoLimit() const { return NextPseudo; }

  /// Allocates a fresh, never-used block label.
  int32_t makeLabel() { return NextLabel++; }

  /// Appends a new block with a fresh label and returns its index.
  size_t addBlock() {
    Blocks.emplace_back(makeLabel());
    return Blocks.size() - 1;
  }

  /// Adds a stack slot and returns its index.
  int32_t addSlot(StackSlot S) {
    Slots.push_back(std::move(S));
    return static_cast<int32_t>(Slots.size()) - 1;
  }

  /// Returns the index of the block whose label is \p Label, or -1.
  int findBlock(int32_t Label) const {
    for (size_t I = 0, E = Blocks.size(); I != E; ++I)
      if (Blocks[I].Label == Label)
        return static_cast<int>(I);
    return -1;
  }

  /// Total number of instructions (the paper's code-size measure).
  size_t instructionCount() const {
    size_t N = 0;
    for (const BasicBlock &B : Blocks)
      N += B.Insts.size();
    return N;
  }

  /// Materializes every shared block and the slot vector, so this
  /// instance aliases no storage with any other.
  void unshareAll() {
    Blocks.unshareAll();
    Slots.unshare();
  }

  /// Returns a copy sharing no storage with this instance.
  Function deepCopy() const {
    Function C = *this;
    C.unshareAll();
    return C;
  }

  /// Ensures NextPseudo/NextLabel are past every number used in the body.
  /// Call after constructing a function by hand (e.g. in tests).
  void recomputeCounters();

  /// Returns one past the highest block label ever allocated.
  int32_t labelLimit() const { return NextLabel; }

  /// Restores both allocation counters exactly. Deserialized instances
  /// (a resumed frontier) must hand out the same fresh registers and
  /// labels the original would have; recomputeCounters() only guarantees
  /// "past every number still used", which is weaker when an allocated
  /// number was later optimized away.
  void setAllocationCounters(RegNum PseudoLimit, int32_t LabelLimit) {
    NextPseudo = PseudoLimit;
    NextLabel = LabelLimit;
  }

private:
  RegNum NextPseudo = FirstPseudoReg;
  int32_t NextLabel = 0;
};

/// Kinds of module-level globals.
enum class GlobalKind : uint8_t {
  Var,      ///< Global variable (scalar or array of words).
  Func,     ///< Function defined in this module.
  External, ///< External function (simulator builtin, e.g. "out").
};

/// A module-level symbol: a global variable or a function.
struct Global {
  std::string Name;
  GlobalKind Kind = GlobalKind::Var;
  /// For variables: size in words.
  int32_t SizeWords = 1;
  /// For variables: declared as an array (must be subscripted).
  bool IsArray = false;
  /// For variables: initial words (zero-padded to SizeWords).
  std::vector<int32_t> Init;
  /// For functions: index into Module::Functions.
  int32_t FuncIndex = -1;
  /// For functions: number of parameters (for call checking).
  int32_t NumParams = 0;
  /// For functions: whether a value is returned.
  bool ReturnsValue = false;
};

/// A translation unit: globals plus function bodies. The compiler optimizes
/// each function individually and in isolation (as VPO does); the Module
/// supplies symbol context and lets the simulator run whole programs.
class Module {
public:
  std::vector<Global> Globals;
  std::vector<Function> Functions;

  /// Returns the global id of the symbol named \p Name, or -1.
  int findGlobal(const std::string &Name) const {
    for (size_t I = 0, E = Globals.size(); I != E; ++I)
      if (Globals[I].Name == Name)
        return static_cast<int>(I);
    return -1;
  }

  /// Returns the function body for global id \p Id, or nullptr if \p Id is
  /// not a defined function.
  const Function *functionFor(int32_t Id) const {
    if (Id < 0 || static_cast<size_t>(Id) >= Globals.size())
      return nullptr;
    const Global &G = Globals[Id];
    if (G.Kind != GlobalKind::Func || G.FuncIndex < 0)
      return nullptr;
    return &Functions[G.FuncIndex];
  }
  Function *functionFor(int32_t Id) {
    return const_cast<Function *>(
        static_cast<const Module *>(this)->functionFor(Id));
  }
};

/// One block's CFG edges (block indices) in the order Cfg::build finds
/// them. A block has at most two successors and usually at most two
/// predecessors, so up to two edges are stored inline; a longer list moves
/// to the heap.
class EdgeList {
public:
  using const_iterator = const int *;

  const int *begin() const { return Spill.empty() ? Inline : Spill.data(); }
  const int *end() const { return begin() + size(); }
  size_t size() const { return Spill.empty() ? NumInline : Spill.size(); }
  bool empty() const { return size() == 0; }
  int operator[](size_t I) const {
    assert(I < size() && "edge index out of range");
    return begin()[I];
  }

  void push_back(int Block) {
    if (Spill.empty()) {
      if (NumInline < InlineEdges) {
        Inline[NumInline++] = Block;
        return;
      }
      Spill.reserve(2 * InlineEdges);
      Spill.assign(Inline, Inline + NumInline);
    }
    Spill.push_back(Block);
  }

  friend bool operator==(const EdgeList &A, const EdgeList &B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }
  friend bool operator==(const EdgeList &A, const std::vector<int> &B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }

private:
  static constexpr size_t InlineEdges = 2;
  size_t NumInline = 0;
  int Inline[InlineEdges] = {};
  /// Every edge, once there are more than InlineEdges; empty until then.
  std::vector<int> Spill;
};

/// Lightweight CFG view over a function's blocks (indices, not pointers).
/// Rebuild after any structural change; building is O(blocks) and
/// allocates twice, plus once per block with more than two predecessors.
struct Cfg {
  std::vector<EdgeList> Succs;
  std::vector<EdgeList> Preds;

  static Cfg build(const Function &F);

  /// Returns true if block \p From may fall through into the next block.
  static bool fallsThrough(const BasicBlock &B) {
    const Rtl *T = B.terminator();
    return !T || T->Opcode == Op::Branch;
  }
};

} // namespace pose

#endif // POSE_IR_FUNCTION_H
