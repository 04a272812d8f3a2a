//===- InstanceTable.cpp - Sharded concurrent instance table ------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/InstanceTable.h"

using namespace pose;

InstanceTable::InstanceTable(unsigned ShardCount) {
  unsigned N = 1;
  while (N < ShardCount && N < (1u << 16))
    N <<= 1;
  Shards = std::make_unique<Shard[]>(N);
  Mask = N - 1;
}

std::optional<uint32_t> InstanceTable::lookup(const HashTriple &T) const {
  const Shard &S = shardFor(T);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(T);
  if (It == S.Map.end())
    return std::nullopt;
  return It->second;
}

std::pair<uint32_t, bool> InstanceTable::tryEmplace(const HashTriple &T,
                                                    uint32_t Id) {
  Shard &S = shardFor(T);
  std::lock_guard<std::mutex> Lock(S.M);
  auto [It, Inserted] = S.Map.emplace(T, Id);
  return {It->second, Inserted};
}

size_t InstanceTable::size() const {
  size_t N = 0;
  for (uint32_t I = 0; I <= Mask; ++I) {
    std::lock_guard<std::mutex> Lock(Shards[I].M);
    N += Shards[I].Map.size();
  }
  return N;
}
