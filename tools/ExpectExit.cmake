# Runs the command given after "--" and fails unless it exits with exactly
# EXIT. With a non-empty STDOUT, its standard output must also match that
# regular expression. A death by signal never matches: execute_process
# reports it as a string, not a number.
#
#   cmake -DEXIT=2 [-DSTDOUT=regex] -P ExpectExit.cmake -- cmd [args...]
#
# ctest's WILL_FAIL accepts any non-zero status, and PASS_REGULAR_EXPRESSION
# ignores the status altogether; this pins both.

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
