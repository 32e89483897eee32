# Runs the command after `--` and fails unless it exits with EXPECT:
#
#   cmake -DEXPECT=2 -P expect_exit.cmake -- <command> [args...]
#
# The bench-cli tests use it to pin a gate bench's exit code on bad input.
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got ${rc}: ${cmd}")
endif()
