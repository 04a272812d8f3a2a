//===- flags_test.cpp - Declarative flag table unit tests -----------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/Flags.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace pose;

namespace {

/// Parses \p Args (argv without the program name) against \p Rows.
bool parse(const std::vector<Flag> &Rows, std::vector<const char *> Args,
           std::string &Error, std::vector<std::string> *Positional = nullptr,
           std::vector<std::string> *Rest = nullptr) {
  Args.insert(Args.begin(), "prog");
  std::vector<std::string> Ignored;
  Error.clear();
  return parseFlags(Rows, static_cast<int>(Args.size()), Args.data(),
                    Positional ? *Positional : Ignored, Rest, Error);
}

TEST(ParseDecimal, AcceptsOnlyPlainDigitsWithinU64) {
  uint64_t V = 42;
  for (const char *Bad : {"", "+1", "-1", " 1", "1 ", "0x1", "1.0", "1e3",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parseDecimal(Bad, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 42u) << "'" << Bad << "' must leave the output alone";
  }
  ASSERT_TRUE(parseDecimal("0", V));
  EXPECT_EQ(V, 0u);
  ASSERT_TRUE(parseDecimal("007", V));
  EXPECT_EQ(V, 7u);
  ASSERT_TRUE(parseDecimal("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(Flags, UintBoundsAreInclusive) {
  uint64_t N = 5;
  const std::vector<Flag> Rows = {uintFlag("--n", N, 1, 10, "n")};
  std::string Error;
  EXPECT_FALSE(parse(Rows, {"--n=0"}, Error));
  EXPECT_EQ(Error, "--n expects a positive integer <= 10, got '0'");
  EXPECT_FALSE(parse(Rows, {"--n=11"}, Error));
  EXPECT_FALSE(parse(Rows, {"--n=1x"}, Error));
  EXPECT_EQ(N, 5u);
  ASSERT_TRUE(parse(Rows, {"--n=1"}, Error)) << Error;
  EXPECT_EQ(N, 1u);
  ASSERT_TRUE(parse(Rows, {"--n=10"}, Error)) << Error;
  EXPECT_EQ(N, 10u);
}

TEST(Flags, NamesMatchExactlyNeverAsAPrefix) {
  bool Equiv = false, EquivCheck = false, Worker = false;
  uint64_t Timeout = 0;
  const std::vector<Flag> Rows = {
      switchFlag("--equiv", Equiv, "e"),
      switchFlag("--equiv-check", EquivCheck, "ec"),
      switchFlag("--worker", Worker, "w"),
      uintFlag("--worker-timeout-ms", Timeout, 1, UINT64_MAX, "t"),
  };
  std::string Error;
  ASSERT_TRUE(parse(Rows, {"--equiv-check", "--worker-timeout-ms=9"}, Error))
      << Error;
  EXPECT_FALSE(Equiv);
  EXPECT_TRUE(EquivCheck);
  EXPECT_FALSE(Worker);
  EXPECT_EQ(Timeout, 9u);

  ASSERT_TRUE(parse(Rows, {"--equiv", "--worker"}, Error)) << Error;
  EXPECT_TRUE(Equiv);
  EXPECT_TRUE(Worker);

  EXPECT_FALSE(parse(Rows, {"--equiv-"}, Error));
  EXPECT_EQ(Error, "unknown option --equiv-");
  EXPECT_FALSE(parse(Rows, {"--equivx"}, Error));
  EXPECT_FALSE(parse(Rows, {"--worker-timeout"}, Error));
}

TEST(Flags, SwitchTakesNoValueAndValuedFlagNeedsOne) {
  bool Run = false;
  uint64_t Jobs = 1;
  std::string Store;
  const std::vector<Flag> Rows = {
      switchFlag("--run", Run, "r"),
      uintFlag("--jobs", Jobs, 1, UINT64_MAX, "j"),
      textFlag("--store", "DIR", Store, "s"),
  };
  std::string Error;
  EXPECT_FALSE(parse(Rows, {"--run=1"}, Error));
  EXPECT_EQ(Error, "--run takes no value");
  EXPECT_FALSE(parse(Rows, {"--run="}, Error));
  EXPECT_FALSE(Run);
  EXPECT_FALSE(parse(Rows, {"--jobs"}, Error));
  EXPECT_NE(Error.find("--jobs=N"), std::string::npos) << Error;
  EXPECT_FALSE(parse(Rows, {"--store"}, Error));
  EXPECT_FALSE(parse(Rows, {"--store="}, Error)); // Text must be non-empty.
  EXPECT_TRUE(Store.empty());
  // The value is everything after the first '='.
  ASSERT_TRUE(parse(Rows, {"--store=a=b"}, Error)) << Error;
  EXPECT_EQ(Store, "a=b");
}

TEST(Flags, ChoiceAndCustomRows) {
  std::string Opt = "batch";
  std::string Seen;
  const std::vector<Flag> Rows = {
      choiceFlag("--opt", Opt, {"none", "batch", "prob"}, "o"),
      customFlag(
          "--ab", "AB", "only the letters a and b",
          [&Seen](const std::string &V) {
            if (V.find_first_not_of("ab") != std::string::npos)
              return false;
            Seen = V;
            return true;
          },
          "letters"),
  };
  std::string Error;
  EXPECT_FALSE(parse(Rows, {"--opt=sequence"}, Error));
  EXPECT_EQ(Error, "--opt expects one of none|batch|prob, got 'sequence'");
  EXPECT_FALSE(parse(Rows, {"--opt="}, Error));
  EXPECT_EQ(Opt, "batch");
  ASSERT_TRUE(parse(Rows, {"--opt=prob"}, Error)) << Error;
  EXPECT_EQ(Opt, "prob");
  EXPECT_FALSE(parse(Rows, {"--ab=abc"}, Error));
  EXPECT_EQ(Error, "--ab expects only the letters a and b, got 'abc'");
  ASSERT_TRUE(parse(Rows, {"--ab=ba"}, Error)) << Error;
  EXPECT_EQ(Seen, "ba");
}

TEST(Flags, RepeatedFlagKeepsItsLastValue) {
  uint64_t Budget = 0;
  std::string Opt;
  std::vector<std::string> All;
  const std::vector<Flag> Rows = {
      uintFlag("--budget", Budget, 1, UINT64_MAX, "b"),
      choiceFlag("--opt", Opt, {"none", "batch"}, "o"),
      customFlag(
          "--add", "X", "anything",
          [&All](const std::string &V) {
            All.push_back(V);
            return true;
          },
          "appends"),
  };
  std::string Error;
  ASSERT_TRUE(parse(Rows,
                    {"--budget=5", "--opt=none", "--add=1", "--budget=7",
                     "--opt=batch", "--add=2"},
                    Error))
      << Error;
  EXPECT_EQ(Budget, 7u);
  EXPECT_EQ(Opt, "batch");
  EXPECT_EQ(All, (std::vector<std::string>{"1", "2"}));
}

TEST(Flags, RequirementsAndExclusions) {
  bool Supervise = false, List = false, Clear = false, Worker = false;
  std::string Store, Quarantine;
  const std::vector<Flag> Rows = {
      textFlag("--store", "DIR", Store, "s"),
      switchFlag("--supervise", Supervise, "sv").needs({"--store"}),
      switchFlag("--list-quarantine", List, "l").needs({"--store"}),
      switchFlag("--clear-quarantine", Clear, "c").needs({"--store"}),
      switchFlag("--worker", Worker, "w").excludes({"--supervise"}),
      textFlag("--quarantine", "DIR", Quarantine, "q")
          .needs({"--supervise", "--list-quarantine", "--clear-quarantine"}),
  };
  std::string Error;
  EXPECT_FALSE(parse(Rows, {"--supervise"}, Error));
  EXPECT_EQ(Error, "--supervise requires --store");
  EXPECT_FALSE(parse(Rows, {"--quarantine=q"}, Error));
  EXPECT_EQ(Error, "--quarantine requires --supervise or --list-quarantine "
                   "or --clear-quarantine");
  for (const char *Mode :
       {"--supervise", "--list-quarantine", "--clear-quarantine"})
    EXPECT_TRUE(parse(Rows, {"--quarantine=q", Mode, "--store=s"}, Error))
        << Mode << ": " << Error;
  // Rules are checked after every flag is read, so order does not matter.
  EXPECT_TRUE(parse(Rows, {"--store=s", "--supervise"}, Error)) << Error;

  EXPECT_FALSE(parse(Rows, {"--supervise", "--store=s", "--worker"}, Error));
  EXPECT_EQ(Error, "--worker cannot be combined with --supervise");
  EXPECT_FALSE(parse(Rows, {"--worker", "--store=s", "--supervise"}, Error));
  EXPECT_TRUE(parse(Rows, {"--worker"}, Error)) << Error;
}

TEST(Flags, RequiredRowMustBeGiven) {
  std::string Socket;
  bool Ping = false;
  const std::vector<Flag> Rows = {
      textFlag("--socket", "PATH", Socket, "s").required(),
      switchFlag("--ping", Ping, "p"),
  };
  std::string Error;
  EXPECT_FALSE(parse(Rows, {"--ping"}, Error));
  EXPECT_EQ(Error, "--socket is required");
  EXPECT_TRUE(parse(Rows, {"--socket=x", "--ping"}, Error)) << Error;
}

TEST(Flags, PositionalsAndTheDoubleDashTerminator) {
  bool Run = false;
  const std::vector<Flag> Rows = {switchFlag("--run", Run, "r")};
  std::string Error;
  std::vector<std::string> Positional, Rest;
  ASSERT_TRUE(parse(Rows, {"a.mc", "--run", "-x", "b"}, Error, &Positional))
      << Error;
  EXPECT_EQ(Positional, (std::vector<std::string>{"a.mc", "-x", "b"}));

  // Without a Rest sink, "--" is just an unknown flag.
  EXPECT_FALSE(parse(Rows, {"--", "--run"}, Error));
  EXPECT_EQ(Error, "unknown option --");

  // With one, everything after "--" is passed through unparsed.
  Positional.clear();
  Run = false;
  ASSERT_TRUE(parse(Rows, {"p", "--", "--run", "--bogus", "--"}, Error,
                    &Positional, &Rest))
      << Error;
  EXPECT_FALSE(Run);
  EXPECT_EQ(Positional, (std::vector<std::string>{"p"}));
  EXPECT_EQ(Rest, (std::vector<std::string>{"--run", "--bogus", "--"}));
}

TEST(Flags, UsageListsEveryRowOnceWithinEightyColumns) {
  bool A = false, B = false;
  uint64_t N = 0;
  std::string Dir, Opt;
  const std::vector<Flag> Rows = {
      switchFlag("--a", A,
                 "a long help text that certainly does not fit on one line "
                 "of an eighty column terminal, so it has to wrap more than "
                 "once before it ends"),
      switchFlag("--b", B, "short").needs({"--a"}),
      uintFlag("--a-rather-long-flag-name", N, 0, UINT64_MAX,
               "whose help starts on its own line"),
      textFlag("--dir", "DIR", Dir, "a directory").required(),
      choiceFlag("--opt", Opt, {"x", "y"}, "pick one"),
  };
  const std::string U = renderUsage("prog [options]", Rows, "epilogue\n");
  EXPECT_EQ(U.rfind("usage: prog [options]\n", 0), 0u) << U;
  EXPECT_NE(U.find("  --opt=x|y "), std::string::npos) << U;
  EXPECT_NE(U.find("(requires --a)"), std::string::npos) << U;
  EXPECT_NE(U.find("(required)"), std::string::npos) << U;
  EXPECT_EQ(U.substr(U.size() - 9), "epilogue\n");

  std::istringstream In(U);
  std::string Line;
  std::vector<std::string> Names;
  while (std::getline(In, Line)) {
    EXPECT_LE(Line.size(), 80u) << Line;
    if (Line.rfind("  --", 0) == 0)
      Names.push_back(Line.substr(2, Line.find_first_of("= ", 2) - 2));
  }
  EXPECT_EQ(Names, (std::vector<std::string>{"--a", "--b",
                                             "--a-rather-long-flag-name",
                                             "--dir", "--opt"}));
}

} // namespace
