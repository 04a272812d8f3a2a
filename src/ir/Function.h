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
/// refcounted handles, and a block is materialized (deep-copied) only at
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

namespace detail {

/// Refcounted box around one basic block. The count is atomic because the
/// parallel enumerator's workers copy and drop handles to the same shared
/// parent blocks concurrently.
struct BlockNode {
  mutable std::atomic<uint32_t> Refs{1};
  BasicBlock Body;

  explicit BlockNode(BasicBlock B) : Body(std::move(B)) {}
  explicit BlockNode(int32_t Label) : Body(Label) {}
};

} // namespace detail

/// Copy-on-write handle to a basic block. Copying shares the underlying
/// block; mut() returns a writable body, deep-copying first if shared.
class BlockHandle {
public:
  BlockHandle() = default;
  explicit BlockHandle(BasicBlock B)
      : N(new detail::BlockNode(std::move(B))) {}
  explicit BlockHandle(int32_t Label) : N(new detail::BlockNode(Label)) {}

  BlockHandle(const BlockHandle &O) : N(O.N) { retain(); }
  BlockHandle(BlockHandle &&O) noexcept : N(O.N) { O.N = nullptr; }
  BlockHandle &operator=(const BlockHandle &O) {
    if (N != O.N) {
      release();
      N = O.N;
      retain();
    }
    return *this;
  }
  BlockHandle &operator=(BlockHandle &&O) noexcept {
    if (this != &O) {
      release();
      N = O.N;
      O.N = nullptr;
    }
    return *this;
  }
  ~BlockHandle() { release(); }

  const BasicBlock &get() const { return N->Body; }

  /// Writable access; unshares (copies the block) when other handles
  /// still reference it. A refcount of 1 proves this handle is the sole
  /// owner: no other thread can be copying through it concurrently.
  BasicBlock &mut() {
    if (N->Refs.load(std::memory_order_acquire) != 1)
      *this = BlockHandle(BasicBlock(N->Body));
    return N->Body;
  }

  /// Stable identity of the shared storage — equal for handles that share
  /// one block. Used by sharing-aware accounting and the COW tests; never
  /// by anything whose output must be deterministic.
  const void *identity() const { return N; }

private:
  void retain() {
    if (N)
      N->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (N && N->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete N;
  }

  detail::BlockNode *N = nullptr;
};

/// The block sequence of a function, as a vector of COW handles.
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
    explicit const_iterator(const BlockHandle *P) : P(P) {}
    reference operator*() const { return P->get(); }
    pointer operator->() const { return &P->get(); }
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
    const BlockHandle *P = nullptr;
  };

  size_t size() const { return H.size(); }
  bool empty() const { return H.empty(); }

  const BasicBlock &operator[](size_t I) const { return H[I].get(); }
  const BasicBlock &front() const { return H.front().get(); }
  const BasicBlock &back() const { return H.back().get(); }

  const_iterator begin() const { return const_iterator(H.data()); }
  const_iterator end() const { return const_iterator(H.data() + H.size()); }

  /// Writable body of block \p I, unsharing it first if needed.
  BasicBlock &mut(size_t I) { return H[I].mut(); }
  BasicBlock &mutBack() { return H.back().mut(); }

  void push_back(BasicBlock B) { H.emplace_back(std::move(B)); }
  /// Appends a fresh (necessarily unique) block and returns its body.
  BasicBlock &emplace_back(int32_t Label) {
    H.emplace_back(Label);
    return H.back().mut();
  }
  void pop_back() { H.pop_back(); }
  void clear() { H.clear(); }
  void reserve(size_t C) { H.reserve(C); }
  /// Shrinks, or grows with fresh empty blocks (deserialization fills
  /// them in via mut()).
  void resize(size_t N) {
    if (N <= H.size()) {
      H.resize(N);
      return;
    }
    H.reserve(N);
    while (H.size() < N)
      H.emplace_back(0);
  }

  void eraseAt(size_t I) {
    H.erase(H.begin() + static_cast<std::ptrdiff_t>(I));
  }
  void insertAt(size_t I, BasicBlock B) {
    H.insert(H.begin() + static_cast<std::ptrdiff_t>(I),
             BlockHandle(std::move(B)));
  }
  /// std::rotate over the handles: moves blocks [\p Middle, \p Last) in
  /// front of [\p First, \p Middle), copying nothing. This is how block
  /// reordering moves whole chains.
  void rotate(size_t First, size_t Middle, size_t Last);

  /// Shared-storage identity of block \p I (see BlockHandle::identity).
  const void *identity(size_t I) const { return H[I].identity(); }

  /// Materializes every shared block (see Function::deepCopy).
  void unshareAll() {
    for (BlockHandle &X : H)
      X.mut();
  }

private:
  std::vector<BlockHandle> H;
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

namespace detail {

/// Refcounted box around a whole stack-slot vector. Slots change rarely
/// (spill insertion, codegen), so the function-level granularity is
/// enough: any mutation unshares the whole vector.
struct SlotNode {
  mutable std::atomic<uint32_t> Refs{1};
  std::vector<StackSlot> V;
};

} // namespace detail

/// The stack-slot vector of a function, COW at whole-vector granularity
/// (slots change rarely; see detail::SlotNode). Same API discipline as
/// BlockList: const reads shared, explicit mutation.
class SlotList {
public:
  SlotList() = default;
  SlotList(const SlotList &O) : N(O.N) { retain(); }
  SlotList(SlotList &&O) noexcept : N(O.N) { O.N = nullptr; }
  SlotList &operator=(const SlotList &O) {
    if (N != O.N) {
      release();
      N = O.N;
      retain();
    }
    return *this;
  }
  SlotList &operator=(SlotList &&O) noexcept {
    if (this != &O) {
      release();
      N = O.N;
      O.N = nullptr;
    }
    return *this;
  }
  ~SlotList() { release(); }

  size_t size() const { return N ? N->V.size() : 0; }
  bool empty() const { return size() == 0; }
  const StackSlot &operator[](size_t I) const { return N->V[I]; }
  const StackSlot *begin() const { return N ? N->V.data() : nullptr; }
  const StackSlot *end() const {
    return N ? N->V.data() + N->V.size() : nullptr;
  }

  StackSlot &mut(size_t I) { return vec()[I]; }
  void push_back(StackSlot S) { vec().push_back(std::move(S)); }
  void resize(size_t S) { vec().resize(S); }
  void clear() {
    release();
    N = nullptr;
  }

  /// Shared-storage identity (nullptr when empty).
  const void *identity() const { return N; }
  void unshare() {
    if (N)
      (void)vec();
  }

private:
  void retain() {
    if (N)
      N->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (N && N->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete N;
  }
  std::vector<StackSlot> &vec() {
    if (!N) {
      N = new detail::SlotNode();
    } else if (N->Refs.load(std::memory_order_acquire) != 1) {
      detail::SlotNode *Fresh = new detail::SlotNode();
      Fresh->V = N->V;
      release();
      N = Fresh;
    }
    return N->V;
  }

  detail::SlotNode *N = nullptr;
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
  /// (checkpoint resume) must hand out the same fresh registers and
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
