//===- Flags.h - Declarative command-line flag tables ---------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tool declares its command line as one table: a row per flag, giving
/// the flag's name, value kind and range, help text, and the flags it
/// requires or excludes. parseFlags() reads argv against the rows and
/// checks the rules; renderUsage() prints the same rows as the usage text.
/// posec, posed and posed-client each declare one table; only rules that
/// depend on a flag's value or on positional arguments stay in the tools.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_SUPPORT_FLAGS_H
#define POSE_SUPPORT_FLAGS_H

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace pose {

/// Strict decimal parser: one or more ASCII digits and nothing else (no
/// sign, whitespace, prefix or trailing text), at most UINT64_MAX. Unlike
/// strtoull it never accepts a partial or wrapped number. \p Out is
/// unchanged on failure.
bool parseDecimal(std::string_view S, uint64_t &Out);

/// Calls \p Item on each comma-separated item of \p List, in order. False
/// when \p List or any item is empty (so a leading, doubled or trailing
/// comma is rejected) or when \p Item returns false.
bool parseList(std::string_view List,
               const std::function<bool(std::string_view)> &Item);

/// One row of a flag table. Build rows with the *Flag() functions below
/// and attach rules with needs()/excludes()/required().
struct Flag {
  Flag(const char *Name, const char *Help, std::string Meta = "",
       std::string Expects = "")
      : Name(Name), Help(Help), Meta(std::move(Meta)),
        Expects(std::move(Expects)) {}

  const char *Name;       ///< "--budget".
  const char *Help;
  std::string Meta;       ///< Value placeholder in the usage; empty for a
                          ///< switch, which takes no value.
  std::string Expects;    ///< What a valid value is, for error messages.
  bool *SwitchOut = nullptr;
  /// Stores a valued flag's value; false when the value is invalid.
  std::function<bool(const std::string &)> Parse;

  /// Each entry is one requirement: when this flag is given, at least one
  /// of the entry's flags must be given too.
  std::vector<std::vector<const char *>> Needs;
  /// Flags that may not be given together with this one.
  std::vector<const char *> Excluded;
  /// The flag must always be given.
  bool Mandatory = false;

  Flag &needs(std::initializer_list<const char *> AnyOf);
  Flag &excludes(std::initializer_list<const char *> Names);
  Flag &required();
};

/// --name: sets \p Out.
Flag switchFlag(const char *Name, bool &Out, const char *Help);
/// --name=N: a strict decimal in [Min, Max].
Flag uintFlag(const char *Name, uint64_t &Out, uint64_t Min, uint64_t Max,
              const char *Help);
/// --name=VALUE: any non-empty string.
Flag textFlag(const char *Name, const char *Meta, std::string &Out,
              const char *Help);
/// --name=VALUE: one of \p Choices.
Flag choiceFlag(const char *Name, std::string &Out,
                const std::vector<const char *> &Choices, const char *Help);
/// --name=VALUE: accepted when \p Parse, which stores it, returns true;
/// \p Expects describes the format for the error message.
Flag customFlag(const char *Name, const char *Meta, const char *Expects,
                std::function<bool(const std::string &)> Parse,
                const char *Help);

/// Builds a table from rows, moving each one in (a braced list would copy
/// every row twice, and tools build their table on every start).
template <class... Rows> std::vector<Flag> flagTable(Rows &&...R) {
  std::vector<Flag> Table;
  Table.reserve(sizeof...(R));
  (Table.push_back(std::move(R)), ...);
  return Table;
}

/// Parses Argv[1..Argc) against \p Rows, then checks every rule of every
/// given row. A flag is "--name" (switch) or "--name=value", matched by
/// its exact name; a repeated flag is parsed again, so the last value
/// wins. Arguments not starting with "--" go to \p Positional. When
/// \p Rest is non-null a bare "--" ends the flags and every later
/// argument goes to *Rest; otherwise "--" is an unknown flag. Returns
/// false with a one-line \p Error on the first problem.
bool parseFlags(const std::vector<Flag> &Rows, int Argc,
                const char *const *Argv, std::vector<std::string> &Positional,
                std::vector<std::string> *Rest, std::string &Error);

/// "usage: <Synopsis>", one entry per row with its help wrapped to 80
/// columns, then \p Epilogue verbatim.
std::string renderUsage(const char *Synopsis, const std::vector<Flag> &Rows,
                        const char *Epilogue = "");

} // namespace pose

#endif // POSE_SUPPORT_FLAGS_H
