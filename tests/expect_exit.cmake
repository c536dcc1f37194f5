# Runs PROG with the space-separated ARGS and fails unless it exits with
# status EXPECT.  A nonzero EXPECT must also print an "error: " line on
# stderr: a typed rejection, not an abort.
#   cmake -DPROG=kcenter_cli "-DARGS=--k 0" -DEXPECT=2 -P expect_exit.cmake
# Optional: MATCH, a regex stderr must also match (the rejection's own
# reason, not just any error); LIMIT_KB, an address-space limit
# (ulimit -v, POSIX sh) to run PROG under, so that a case which would
# allocate past it cannot take the host's memory; ABSENT, a path that
# must not exist after PROG exits (removed first): a rejected run leaves
# no output file behind; NOT_STDOUT, a regex stdout must not match (a
# rejected run did no work: it printed no report).
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED ABSENT)
  file(REMOVE "${ABSENT}")
endif()
set(cmd ${PROG} ${args})
if(DEFINED LIMIT_KB)
  set(cmd sh -c "ulimit -v ${LIMIT_KB} && exec \"$0\" \"$@\"" ${cmd})
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${status}'\n${err}")
endif()
if(NOT EXPECT STREQUAL "0" AND NOT err MATCHES "error: ")
  message(FATAL_ERROR "no 'error: ' line on stderr:\n${err}")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr does not match '${MATCH}':\n${err}")
endif()
if(DEFINED ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "left '${ABSENT}' behind")
endif()
if(DEFINED NOT_STDOUT AND out MATCHES "${NOT_STDOUT}")
  message(FATAL_ERROR "stdout matches '${NOT_STDOUT}':\n${out}")
endif()
