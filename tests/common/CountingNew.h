//===- CountingNew.h - Counting global operator new ------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// CountingNew.cpp replaces the global operator new with one that counts
// its calls. An executable that links it counts every allocation of every
// test in it, so such tests get an executable of their own.
//
//===----------------------------------------------------------------------===//

#ifndef POSE_TESTS_COMMON_COUNTINGNEW_H
#define POSE_TESTS_COMMON_COUNTINGNEW_H

#include <cstddef>

namespace pose {
namespace testhelpers {

/// Calls of the global operator new so far.
size_t allocationCount();

/// Allocations made by \p Run.
template <typename FnT> size_t allocationsOf(FnT Run) {
  const size_t Before = allocationCount();
  Run();
  return allocationCount() - Before;
}

} // namespace testhelpers
} // namespace pose

#endif // POSE_TESTS_COMMON_COUNTINGNEW_H
