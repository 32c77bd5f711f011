# Runs an example and requires its "document N -> ..." delivery lines to
# equal a golden file, line for line.
#
#   cmake -DEXE=<binary> -DARGS=<arg;...> -DGOLDEN=<file> \
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
