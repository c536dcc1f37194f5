# Runs PROG with the space-separated ARGS and fails unless it exits with
# status EXPECT.  A nonzero EXPECT must also print an "error: " line on
# stderr: a typed rejection, not an abort.
#   cmake -DPROG=kcenter_cli "-DARGS=--k 0" -DEXPECT=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROG} ${args} RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${status}'\n${err}")
endif()
if(NOT EXPECT STREQUAL "0" AND NOT err MATCHES "error: ")
  message(FATAL_ERROR "no 'error: ' line on stderr:\n${err}")
endif()
