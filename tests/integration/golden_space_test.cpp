//===- golden_space_test.cpp - Enumeration golden anchors ------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the exact shape of every workload function's enumerated space.
// Any change to a phase, to canonicalization, or to the enumerator that
// alters one of these spaces shows up here first — with the understanding
// that an intentional optimizer change legitimately updates these numbers
// (like a compiler's golden-output tests). The same spaces also check the
// paper's claim that the merge triple never joins different instances.
//
//===----------------------------------------------------------------------===//

#include "src/core/SpaceStats.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"
#include "tests/common/TripleCheck.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

using namespace pose;
using namespace pose::testhelpers;

namespace {

struct GoldenSpace {
  const char *Program;
  const char *Function;
  uint64_t Instances;
  uint64_t Attempted;
  uint32_t MaxLen;
  uint64_t Leaves;
  uint32_t BestSize;
  uint32_t WorstSize;
};

// The Table 3 row of every workload function, recorded from the
// 1M-budget enumeration. They equal the "fn" rows of perfbench/goldens.txt
// (nodes, attempted, leaves, Len, min/max leaf; reordered to this struct).
const GoldenSpace Goldens[] = {
    {"bitcount", "bit_count", 194, 2388, 12, 5, 15, 25},
    {"bitcount", "bit_shifter", 107, 1302, 10, 5, 20, 29},
    {"bitcount", "ntbl_bitcount", 12, 146, 6, 1, 48, 48},
    {"bitcount", "btbl_init", 34, 401, 8, 5, 21, 36},
    {"bitcount", "btbl_bitcount", 12, 146, 6, 1, 24, 24},
    {"bitcount", "bitcount_swar", 15, 185, 7, 3, 22, 41},
    {"bitcount", "bitcount_recursive", 38, 436, 8, 2, 9, 9},
    {"bitcount", "bitcount_dense", 15, 185, 7, 3, 21, 34},
    {"bitcount", "main", 104, 1206, 9, 5, 41, 57},
    {"dijkstra", "build_graph", 402, 4591, 12, 9, 34, 59},
    {"dijkstra", "pick_nearest", 128, 1482, 10, 5, 23, 33},
    {"dijkstra", "dijkstra", 1927, 21038, 16, 10, 88, 115},
    {"dijkstra", "enqueue", 6, 68, 3, 2, 16, 16},
    {"dijkstra", "dequeue", 20, 249, 7, 2, 9, 9},
    {"dijkstra", "qcount", 2, 25, 1, 1, 4, 4},
    {"dijkstra", "path_length", 75, 924, 10, 3, 13, 19},
    {"dijkstra", "main", 166, 2028, 11, 9, 55, 96},
    {"fft", "fix_mul", 6, 68, 3, 2, 5, 5},
    {"fft", "make_sine", 56, 678, 9, 6, 29, 45},
    {"fft", "sin_q", 6, 68, 3, 2, 6, 6},
    {"fft", "cos_q", 6, 68, 3, 2, 7, 7},
    {"fft", "load_signal", 34, 408, 8, 5, 22, 36},
    {"fft", "bit_reverse", 242, 2791, 12, 5, 46, 72},
    {"fft", "fix_fft", 65, 795, 9, 6, 92, 115},
    {"fft", "isqrt", 170, 1987, 11, 6, 14, 26},
    {"fft", "window_signal", 1149, 12931, 15, 13, 22, 34},
    {"fft", "spectrum_checksum", 79, 961, 9, 8, 25, 40},
    {"fft", "main", 16, 196, 7, 4, 11, 19},
    {"jpeg", "rgb_ycc_setup", 37, 428, 7, 5, 22, 35},
    {"jpeg", "rgb_to_y", 6, 68, 3, 2, 21, 21},
    {"jpeg", "fill_block", 148, 1827, 14, 11, 22, 37},
    {"jpeg", "forward_dct_rows", 282, 3335, 13, 8, 36, 60},
    {"jpeg", "forward_dct_cols", 242, 2879, 12, 8, 41, 68},
    {"jpeg", "quantize_block", 296, 3384, 11, 14, 26, 49},
    {"jpeg", "zigzag_order", 37, 446, 8, 4, 25, 31},
    {"jpeg", "dequantize_block", 38, 451, 8, 5, 27, 33},
    {"jpeg", "reconstruction_error", 132, 1526, 10, 6, 16, 31},
    {"jpeg", "emit_bits", 45, 532, 9, 3, 35, 37},
    {"jpeg", "flush_bits", 12, 130, 4, 2, 22, 22},
    {"jpeg", "magnitude_bits", 404, 4730, 15, 8, 17, 30},
    {"jpeg", "encode_block", 404, 4418, 11, 14, 29, 58},
    {"jpeg", "packed_checksum", 306, 3724, 12, 8, 26, 39},
    {"jpeg", "run_length_checksum", 280, 3252, 11, 10, 25, 36},
    {"jpeg", "main", 24, 299, 7, 3, 17, 20},
    {"sha", "rotl", 7, 90, 5, 1, 9, 9},
    {"sha", "sha_init", 4, 47, 2, 2, 21, 21},
    {"sha", "fill_data", 46, 556, 9, 5, 25, 30},
    {"sha", "sha_transform", 120, 1431, 11, 8, 190, 248},
    {"sha", "copy_block", 45, 533, 8, 5, 22, 25},
    {"sha", "block_checksum", 93, 1142, 10, 7, 35, 40},
    {"sha", "main", 145, 1772, 11, 5, 51, 63},
    {"stringsearch", "str_len", 198, 2291, 13, 4, 112, 131},
    {"stringsearch", "bmh_init", 49, 586, 9, 4, 50, 62},
    {"stringsearch", "text_len", 35, 418, 8, 2, 19, 21},
    {"stringsearch", "bmh_search", 178, 2030, 11, 7, 42, 61},
    {"stringsearch", "to_lower", 24, 268, 7, 1, 8, 8},
    {"stringsearch", "naive_search", 169, 1917, 11, 5, 35, 54},
    {"stringsearch", "count_matches", 132, 1443, 10, 4, 15, 25},
    {"stringsearch", "count_naive", 132, 1443, 10, 4, 16, 21},
    {"stringsearch", "main", 22, 274, 7, 3, 24, 26},
    {"crc32", "make_crc_table", 2037, 23183, 17, 24, 49, 79},
    {"crc32", "crc_bitwise", 248, 2900, 11, 8, 19, 27},
    {"crc32", "crc_byte", 12, 146, 6, 1, 10, 10},
    {"crc32", "crc_nibble", 11, 133, 5, 2, 17, 28},
    {"crc32", "fill_stream", 42, 508, 9, 5, 28, 34},
    {"crc32", "crc_of_stream", 865, 10042, 13, 16, 25, 38},
    {"crc32", "main", 152, 1742, 11, 5, 25, 33},
};

TEST(GoldenSpace, KnownSpacesStayStable) {
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  size_t SuiteFunctions = 0;
  for (const Workload &W : allWorkloads())
    SuiteFunctions += compileOrDie(W.Source).Functions.size();
  EXPECT_EQ(std::size(Goldens), SuiteFunctions);
  for (const GoldenSpace &G : Goldens) {
    const std::string Key = std::string(G.Program) + "/" + G.Function;
    const Workload *W = findWorkload(G.Program);
    ASSERT_NE(W, nullptr);
    Module M = compileOrDie(W->Source);
    Function &F = functionNamed(M, G.Function);
    EnumerationResult R = E.enumerate(F);
    ASSERT_TRUE(R.complete()) << Key;
    SpaceStats S = computeSpaceStats(F, R);
    EXPECT_EQ(S.FnInstances, G.Instances) << Key;
    EXPECT_EQ(S.AttemptedPhases, G.Attempted) << Key;
    EXPECT_EQ(S.MaxActiveLen, G.MaxLen) << Key;
    EXPECT_EQ(S.LeafInstances, G.Leaves) << Key;
    EXPECT_EQ(S.LeafCodeSizeMin, G.BestSize) << Key;
    EXPECT_EQ(S.LeafCodeSizeMax, G.WorstSize) << Key;
  }
}

TEST(GoldenSpace, EqualTriplesHaveEqualCanonicalBytes) {
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  uint64_t Edges = 0;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (const Function &F : M.Functions)
      Edges += expectEqualTriplesHaveEqualBytes(
          F, PM, E.enumerate(F), std::string(W.Name) + "/" + F.Name);
  }
  // One edge per active attempt of the suite: every instance-table hit
  // or insert of a Table 3 run (perfbench's core.active).
  EXPECT_EQ(Edges, 34'761u);
}

} // namespace
