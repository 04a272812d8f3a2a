# Runs the command given after "--" and fails unless it exits with exactly
# EXIT. With a non-empty STDOUT, its standard output must also match that
# regular expression. With a non-empty EXPECTED, its standard output must
# equal that file once wall-clock fields are masked on both sides: Table
# 3's "in N s total", Table 7's Time(ms) columns, Prob/Old time ratio and
# compile-time ratio, and Figure 6's seconds and speedups. On a mismatch
# the masked texts are written to <EXPECTED's name>.actual and .expected
# in the working directory, and their diff is printed. A death by signal never matches: execute_process
# reports it as a string, not a number.
#
#   cmake -DEXIT=2 [-DSTDOUT=regex] [-DEXPECTED=file] -P ExpectExit.cmake
#         -- cmd [args...]
#
# ctest's WILL_FAIL accepts any non-zero status, and PASS_REGULAR_EXPRESSION
# ignores the status altogether; this pins both.

function(mask_wall_clock Var)
  set(T "${${Var}}")
  string(REGEX REPLACE "in [0-9]+\\.[0-9]+ s total" "in * s total" T "${T}")
  # Table 7 rows: "Attempted Active Time(ms) |" for each compiler, then
  # the size and time ratios at the end of the line.
  string(REGEX REPLACE "([0-9]+ +[0-9]+) +[0-9]+\\.[0-9]+ \\|" "\\1 * |"
         T "${T}")
  string(REGEX REPLACE "(\\| +[0-9]+\\.[0-9]+) +[0-9]+\\.[0-9]+\n" "\\1 *\n"
         T "${T}")
  string(REGEX REPLACE "compile-time ratio [0-9]+\\.[0-9]+"
         "compile-time ratio *" T "${T}")
  # Figure 6 rows: "applies s |" for the naive and the shared column, then
  # the speedup; and the same three times on the totals line.
  string(REGEX REPLACE
         "(\\| +[0-9]+) +[0-9]+\\.[0-9]+ (\\| +[0-9]+) +[0-9]+\\.[0-9]+ \\| +[0-9]+\\.[0-9]+x\n"
         "\\1 * \\2 * | *x\n" T "${T}")
  string(REGEX REPLACE
         "[0-9]+\\.[0-9]+ s vs [0-9]+\\.[0-9]+ s \\([0-9]+\\.[0-9]+x\\)"
         "* s vs * s (*x)" T "${T}")
  set(${Var} "${T}" PARENT_SCOPE)
endfunction()

set(Cmd)
set(Take FALSE)
math(EXPR Last "${CMAKE_ARGC} - 1")
foreach(I RANGE ${Last})
  if(Take)
    list(APPEND Cmd "${CMAKE_ARGV${I}}")
  elseif("${CMAKE_ARGV${I}}" STREQUAL "--")
    set(Take TRUE)
  endif()
endforeach()
if(NOT Cmd)
  message(FATAL_ERROR "ExpectExit: no command after --")
endif()

execute_process(COMMAND ${Cmd} RESULT_VARIABLE Rc OUTPUT_VARIABLE Out)
if(NOT "${Rc}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "ExpectExit: expected exit code ${EXIT}, got '${Rc}'\n"
                      "stdout:\n${Out}")
endif()
if(NOT "${STDOUT}" STREQUAL "" AND NOT "${Out}" MATCHES "${STDOUT}")
  message(FATAL_ERROR "ExpectExit: stdout does not match '${STDOUT}':\n"
                      "${Out}")
endif()
if(NOT "${EXPECTED}" STREQUAL "")
  file(READ "${EXPECTED}" Want)
  mask_wall_clock(Out)
  mask_wall_clock(Want)
  if(NOT "${Out}" STREQUAL "${Want}")
    get_filename_component(Name "${EXPECTED}" NAME)
    file(WRITE "${Name}.expected" "${Want}")
    file(WRITE "${Name}.actual" "${Out}")
    execute_process(COMMAND diff -u "${Name}.expected" "${Name}.actual"
                    OUTPUT_VARIABLE Diff)
    message(FATAL_ERROR "ExpectExit: stdout differs from ${EXPECTED} "
                        "(wall-clock fields masked):\n${Diff}")
  endif()
endif()
