# Robustness check for the perfkit JSON parser: writes a 200000-deep
# `[[[...` document (generated here, never committed) and requires
# perfkit_compare to reject it through the parser's nesting-depth
# diagnostic rather than overflowing the stack (which ends in SIGSEGV,
# exit status 139 from a shell).
#
#   cmake -DCOMPARE=<perfkit_compare> -DINPUT=<scratch file> -P deep_nesting_test.cmake
string(REPEAT "[" 200000 deep)
file(WRITE "${INPUT}" "${deep}")
execute_process(COMMAND "${COMPARE}" "${INPUT}" "${INPUT}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
# A crash reports a signal description, not a number.
if(NOT status MATCHES "^[0-9]+$" OR status EQUAL 0 OR status EQUAL 139)
  message(FATAL_ERROR "perfkit_compare on deep nesting: exit '${status}'\n${err}")
endif()
if(NOT err MATCHES "nesting deeper than [0-9]+ levels")
  message(FATAL_ERROR "perfkit_compare on deep nesting: no depth diagnostic\n${err}")
endif()
message(STATUS "rejected with exit ${status}: ${err}")
