//===- Flags.cpp - Declarative command-line flag tables -------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/support/Flags.h"

#include <algorithm>
#include <cassert>
#include <charconv>

using namespace pose;

bool pose::parseDecimal(std::string_view S, uint64_t &Out) {
  // from_chars takes no sign, space or prefix for an unsigned type and
  // reports overflow; it may still stop early, hence the end check.
  uint64_t V = 0;
  const char *End = S.data() + S.size();
  const std::from_chars_result R = std::from_chars(S.data(), End, V);
  if (R.ec != std::errc() || R.ptr != End)
    return false;
  Out = V;
  return true;
}

bool pose::parseList(std::string_view List,
                     const std::function<bool(std::string_view)> &Item) {
  for (;;) {
    const size_t Comma = List.find(',');
    const std::string_view Head = List.substr(0, Comma);
    if (Head.empty() || !Item(Head))
      return false;
    if (Comma == std::string_view::npos)
      return true;
    List.remove_prefix(Comma + 1);
  }
}

Flag &Flag::needs(std::initializer_list<const char *> AnyOf) {
  Needs.emplace_back(AnyOf);
  return *this;
}

Flag &Flag::excludes(std::initializer_list<const char *> Names) {
  Excluded.insert(Excluded.end(), Names);
  return *this;
}

Flag &Flag::required() {
  Mandatory = true;
  return *this;
}

namespace {

std::string join(const std::vector<const char *> &Names, const char *Sep) {
  std::string S;
  for (const char *N : Names)
    S += (S.empty() ? "" : Sep) + std::string(N);
  return S;
}

/// Index of the row named exactly \p Name, or Rows.size().
size_t findRow(const std::vector<Flag> &Rows, std::string_view Name) {
  size_t I = 0;
  while (I != Rows.size() && Name != Rows[I].Name)
    ++I;
  return I;
}

/// Checks every rule of every given row, in table order.
bool checkRules(const std::vector<Flag> &Rows, const std::vector<bool> &Given,
                std::string &Error) {
  auto IsGiven = [&](const char *Name) {
    const size_t I = findRow(Rows, Name);
    assert(I != Rows.size() && "a flag rule names an undeclared flag");
    return I != Rows.size() && Given[I];
  };
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Flag &F = Rows[I];
    if (!Given[I] && F.Mandatory) {
      Error = std::string(F.Name) + " is required";
      return false;
    }
    if (!Given[I])
      continue;
    for (const std::vector<const char *> &AnyOf : F.Needs)
      if (std::none_of(AnyOf.begin(), AnyOf.end(), IsGiven)) {
        Error = std::string(F.Name) + " requires " + join(AnyOf, " or ");
        return false;
      }
    for (const char *N : F.Excluded)
      if (IsGiven(N)) {
        Error = std::string(F.Name) + " cannot be combined with " + N;
        return false;
      }
  }
  return true;
}

} // namespace

Flag pose::switchFlag(const char *Name, bool &Out, const char *Help) {
  Flag F(Name, Help);
  F.SwitchOut = &Out;
  return F;
}

Flag pose::uintFlag(const char *Name, uint64_t &Out, uint64_t Min,
                    uint64_t Max, const char *Help) {
  Flag F(Name, Help, "N");
  F.Expects = Min == 0   ? "a non-negative integer"
              : Min == 1 ? "a positive integer"
                         : "an integer >= " + std::to_string(Min);
  if (Max != UINT64_MAX)
    F.Expects += " <= " + std::to_string(Max);
  F.Parse = [&Out, Min, Max](const std::string &V) {
    uint64_t N = 0;
    if (!parseDecimal(V, N) || N < Min || N > Max)
      return false;
    Out = N;
    return true;
  };
  return F;
}

Flag pose::textFlag(const char *Name, const char *Meta, std::string &Out,
                    const char *Help) {
  Flag F(Name, Help, Meta, std::string("a non-empty ") + Meta);
  F.Parse = [&Out](const std::string &V) {
    if (V.empty())
      return false;
    Out = V;
    return true;
  };
  return F;
}

Flag pose::choiceFlag(const char *Name, std::string &Out,
                      const std::vector<const char *> &Choices,
                      const char *Help) {
  Flag F(Name, Help, join(Choices, "|"), "one of " + join(Choices, "|"));
  F.Parse = [&Out, Choices](const std::string &V) {
    if (std::find(Choices.begin(), Choices.end(), V) == Choices.end())
      return false;
    Out = V;
    return true;
  };
  return F;
}

Flag pose::customFlag(const char *Name, const char *Meta, const char *Expects,
                      std::function<bool(const std::string &)> Parse,
                      const char *Help) {
  Flag F(Name, Help, Meta, Expects);
  F.Parse = std::move(Parse);
  return F;
}

bool pose::parseFlags(const std::vector<Flag> &Rows, int Argc,
                      const char *const *Argv,
                      std::vector<std::string> &Positional,
                      std::vector<std::string> *Rest, std::string &Error) {
  std::vector<bool> Given(Rows.size(), false);
  for (int I = 1; I < Argc; ++I) {
    const std::string_view A = Argv[I];
    if (Rest && A == "--") {
      Rest->assign(Argv + I + 1, Argv + Argc);
      break;
    }
    if (A.substr(0, 2) != "--") {
      Positional.emplace_back(A);
      continue;
    }
    const size_t Eq = A.find('=');
    const size_t Row = findRow(Rows, A.substr(0, Eq));
    if (Row == Rows.size()) {
      Error = "unknown option " + std::string(A);
      return false;
    }
    const Flag &F = Rows[Row];
    const bool HasValue = Eq != std::string_view::npos;
    const std::string Value(HasValue ? A.substr(Eq + 1) : "");
    Given[Row] = true;
    if (F.SwitchOut && !HasValue) {
      *F.SwitchOut = true;
      continue;
    }
    if (!F.SwitchOut && HasValue && F.Parse(Value))
      continue;
    const std::string Name = F.Name;
    if (F.SwitchOut)
      Error = Name + " takes no value";
    else if (HasValue)
      Error = Name + " expects " + F.Expects + ", got '" + Value + "'";
    else
      Error = Name + " expects " + F.Expects + " (" + Name + "=" + F.Meta + ")";
    return false;
  }
  return checkRules(Rows, Given, Error);
}

std::string pose::renderUsage(const char *Synopsis,
                              const std::vector<Flag> &Rows,
                              const char *Epilogue) {
  constexpr size_t HelpColumn = 26, Width = 80;
  std::string Out = std::string("usage: ") + Synopsis + "\n";
  for (const Flag &F : Rows) {
    std::string Help = F.Help;
    std::string Rules;
    for (const std::vector<const char *> &AnyOf : F.Needs)
      Rules += (Rules.empty() ? "" : " and ") + join(AnyOf, " or ");
    if (F.Mandatory)
      Help += " (required)";
    else if (!Rules.empty())
      Help += " (requires " + Rules + ")";
    // The flag, then its help word-wrapped into the help column; a flag
    // too wide for the column gets a line of its own.
    std::string Line = std::string("  ") + F.Name;
    if (!F.SwitchOut)
      Line += "=" + F.Meta;
    if (Line.size() >= HelpColumn) {
      Out += Line + "\n";
      Line.clear();
    }
    Line.resize(HelpColumn, ' ');
    for (size_t Pos = 0; Pos < Help.size();) {
      const size_t End = std::min(Help.find(' ', Pos), Help.size());
      if (Line.size() > HelpColumn && Line.size() + 1 + End - Pos > Width) {
        Out += Line + "\n";
        Line.assign(HelpColumn, ' ');
      }
      if (Line.size() > HelpColumn)
        Line += ' ';
      Line.append(Help, Pos, End - Pos);
      Pos = End + 1;
    }
    Out += Line + "\n";
  }
  return Out + Epilogue;
}
