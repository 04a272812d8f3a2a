//===- fnv_test.cpp - FNV-1a unit tests -------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/Fnv.h"

#include <gtest/gtest.h>

using namespace pose;

namespace {

TEST(Fnv1a, KnownVectors) {
  // The published 64-bit FNV-1a test vectors.
  EXPECT_EQ(Fnv1a().bytes("").value(), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a().bytes("a").value(), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a().bytes("foobar").value(), 0x85944171f73967e8ull);
}

TEST(Fnv1a, StepsAgree) {
  // le32 folds the little-endian bytes; a word below 256 is one byte.
  EXPECT_EQ(Fnv1a().le32(0x64636261u).value(),
            Fnv1a().bytes("abcd").value());
  EXPECT_EQ(Fnv1a().word('a').value(), Fnv1a().byte('a').value());
  // Continuing from a value is the same as hashing the concatenation.
  EXPECT_EQ(Fnv1a(Fnv1a().bytes("foo").value()).bytes("bar").value(),
            Fnv1a().bytes("foobar").value());
  // A wide word is one step, not eight.
  EXPECT_NE(Fnv1a().word(0x0102).value(), Fnv1a().byte(2).byte(1).value());
}

} // namespace
