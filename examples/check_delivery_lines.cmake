# Runs an example and requires its "document N -> ..." delivery lines to
# equal a golden file, line for line. With -DCLAMPED=ON it also requires a
# "routing with N worker threads" line with 1 <= N <= this host's cores.
#
#   cmake -DEXE=<binary> -DARGS=<arg;...> -DGOLDEN=<file> [-DCLAMPED=ON] \
#         -P check_delivery_lines.cmake
execute_process(COMMAND ${EXE} ${ARGS}
                OUTPUT_VARIABLE output
                ERROR_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${status}")
endif()
string(REGEX MATCHALL "document [0-9]+ -> [^\n]*\n" lines "${output}")
string(JOIN "" actual ${lines})
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "delivery lines differ from ${GOLDEN}\n"
                      "expected:\n${expected}actual:\n${actual}")
endif()
if(CLAMPED)
  if(NOT output MATCHES "routing with ([0-9]+) worker threads")
    message(FATAL_ERROR "no worker-count line in:\n${output}")
  endif()
  set(workers ${CMAKE_MATCH_1})
  cmake_host_system_information(RESULT cores QUERY NUMBER_OF_LOGICAL_CORES)
  if(workers LESS 1 OR workers GREATER cores)
    message(FATAL_ERROR "${workers} workers on a ${cores}-core host")
  endif()
endif()
