# Runs an example twice, once with ARGS_A and once with ARGS_B, and
# requires the Prometheus sample of metric METRIC to be present and equal
# in both outputs.
#
#   cmake -DEXE=<binary> -DARGS_A=<arg;...> -DARGS_B=<arg;...> \
#         -DMETRIC=<name> -P check_metric_equal.cmake
foreach(run A B)
  execute_process(COMMAND ${EXE} ${ARGS_${run}}
                  OUTPUT_VARIABLE output
                  ERROR_QUIET
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXE} ${ARGS_${run}} exited with ${status}")
  endif()
  if(NOT output MATCHES "\n${METRIC} ([0-9]+)\n")
    message(FATAL_ERROR "no ${METRIC} sample in:\n${output}")
  endif()
  set(value_${run} ${CMAKE_MATCH_1})
endforeach()
if(NOT value_A EQUAL value_B)
  message(FATAL_ERROR "${METRIC}: ${value_A} with '${ARGS_A}', "
                      "${value_B} with '${ARGS_B}'")
endif()
