# Runs `resex_cli quickstart --queries -1` and fails unless the CLI exits 2
# before doing any work: no `instance:` or `rebalance:` line may be printed.
#
#   cmake -DRESEX_CLI=<path to resex_cli> -P quickstart_bad_flag.cmake
if(NOT RESEX_CLI)
  message(FATAL_ERROR "set -DRESEX_CLI=<path to resex_cli>")
endif()
execute_process(
  COMMAND ${RESEX_CLI} quickstart --queries -1
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${status}'\n${out}${err}")
endif()
if(out MATCHES "instance:|rebalance:")
  message(FATAL_ERROR "quickstart did work before rejecting the flag:\n${out}")
endif()
