//===- Fnv.h - FNV-1a 64-bit hashing ----------------------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a, the one host-independent hash behind POSE's content keys,
/// fingerprints and digests: frontier footprint keys, control-flow hashes,
/// configuration fingerprints, behavior digests, shard assignment and
/// retry jitter salts. It is pure arithmetic over explicitly ordered
/// input, so a value computed on one host is the value on every host —
/// which the persisted ones (store fingerprints, shard assignments)
/// depend on.
///
/// Every step is FNV-1a's xor-then-multiply. byte() folds one octet, the
/// standard algorithm; word() folds a whole 64-bit value in one step, the
/// widened form the fingerprints and digests were defined with. The two
/// give different values for the same data, so each caller keeps the
/// step its recorded values use.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_FNV_H
#define POSE_SUPPORT_FNV_H

#include <cstdint>
#include <string_view>

namespace pose {

/// A running FNV-1a hash.
class Fnv1a {
public:
  static constexpr uint64_t Basis = 0xCBF29CE484222325ull;
  static constexpr uint64_t Prime = 0x100000001B3ull;

  /// Starts from the offset basis, or continues from an earlier value.
  explicit constexpr Fnv1a(uint64_t State = Basis) : H(State) {}

  /// Folds one octet.
  Fnv1a &byte(uint8_t B) { return word(B); }
  /// Folds the four bytes of \p V, least significant first.
  Fnv1a &le32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
    return *this;
  }
  /// Folds every byte of \p S.
  Fnv1a &bytes(std::string_view S) {
    for (char C : S)
      byte(static_cast<uint8_t>(C));
    return *this;
  }
  /// Folds a whole 64-bit value in one step.
  Fnv1a &word(uint64_t V) {
    H = (H ^ V) * Prime;
    return *this;
  }

  uint64_t value() const { return H; }

private:
  uint64_t H;
};

} // namespace pose

#endif // POSE_SUPPORT_FNV_H
