//===- CountingNew.cpp - Counting global operator new ---------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tests/common/CountingNew.h"

#include <cstdlib>
#include <new>

namespace {
size_t Allocations = 0;
} // namespace

size_t pose::testhelpers::allocationCount() { return Allocations; }

// GCC 12 at -O2 and above reports the free() below as mismatched with
// operator new once it inlines both; both sides use malloc and free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *operator new(std::size_t N) {
  ++Allocations;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
#pragma GCC diagnostic pop
