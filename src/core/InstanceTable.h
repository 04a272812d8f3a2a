//===- InstanceTable.h - Sharded concurrent instance table -----*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4.2 instance table — canonical hash triple to DAG node id —
/// made safe for the parallel enumerator by sharding: each triple lands in
/// the shard selected by its CRC, each shard carries its own mutex, so
/// lock contention falls off with the shard count while a given triple
/// always resolves through the same shard.
///
/// Concurrency contract (this is what makes the DAG byte-identical for
/// every job count): worker threads only *look up* — every insert is made
/// by the one thread committing at the time, in frontier order. Any id a
/// lookup returns is therefore final, and a miss can only mean "not
/// committed yet", which the deterministic commit resolves.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_CORE_INSTANCETABLE_H
#define POSE_CORE_INSTANCETABLE_H

#include "src/core/Canonical.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace pose {

class InstanceTable {
public:
  /// \p ShardCount is rounded up to a power of two (minimum 1).
  explicit InstanceTable(unsigned ShardCount = 64);

  InstanceTable(const InstanceTable &) = delete;
  InstanceTable &operator=(const InstanceTable &) = delete;

  /// Returns the node id recorded for \p T, if any. Safe to call
  /// concurrently with other lookups and with tryEmplace on other triples'
  /// shards; see the file comment for the contract the enumerator relies
  /// on.
  std::optional<uint32_t> lookup(const HashTriple &T) const;

  /// Records \p Id for \p T unless \p T is already present. Returns the
  /// resident id and whether the insert happened (unordered_map::emplace
  /// semantics).
  std::pair<uint32_t, bool> tryEmplace(const HashTriple &T, uint32_t Id);

  /// Total entries across all shards (takes every shard lock; not meant
  /// for hot paths).
  size_t size() const;

private:
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<HashTriple, uint32_t, HashTripleHasher> Map;
  };

  Shard &shardFor(const HashTriple &T) const {
    // Shard by CRC (the best-mixed member of the triple), folded so short
    // functions that only differ high up still spread.
    return Shards[(T.Crc ^ (T.Crc >> 16)) & Mask];
  }

  std::unique_ptr<Shard[]> Shards;
  uint32_t Mask;
};

} // namespace pose

#endif // POSE_CORE_INSTANCETABLE_H
