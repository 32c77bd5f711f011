# Runs an example once per argument set and requires every subscription
# named in its "document N -> ..." delivery lines to have both
# per-subscription latency series (xaos_sub_match_latency_ns and
# xaos_sub_first_match_ns) in its Prometheus dump.
#
#   cmake -DEXE=<binary> -DRUNS=<args>[,<args>...] [-DSERIES=OFF] \
#         -P check_subscription_series.cmake
#
# RUNS separates argument sets with commas; an empty set runs the binary
# without arguments. SERIES=OFF (a build with the instrumentation compiled
# out) instead requires deliveries and no xaos_sub_* series at all.
if(NOT DEFINED SERIES)
  set(SERIES ON)
endif()
string(REPLACE "," ";" runs "${RUNS}")
foreach(args IN LISTS runs)
  execute_process(COMMAND ${EXE} ${args}
                  OUTPUT_VARIABLE output
                  ERROR_QUIET
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXE} ${args} exited with ${status}")
  endif()
  string(REGEX MATCHALL "document [0-9]+ -> [^\n]*" lines "${output}")
  set(names "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^document [0-9]+ -> " "" delivered "${line}")
    if(delivered STREQUAL "(no subscribers)")
      continue()
    endif()
    string(REPLACE ", " ";" delivered "${delivered}")
    list(APPEND names ${delivered})
  endforeach()
  list(REMOVE_DUPLICATES names)
  if(names STREQUAL "")
    message(FATAL_ERROR "${EXE} ${args} delivered nothing:\n${output}")
  endif()
  if(NOT SERIES)
    string(FIND "${output}" "\nxaos_sub_" found)
    if(NOT found EQUAL -1)
      message(FATAL_ERROR "'${EXE} ${args}' exported xaos_sub_* series with "
                          "the instrumentation compiled out:\n${output}")
    endif()
    continue()
  endif()
  foreach(name IN LISTS names)
    foreach(series xaos_sub_match_latency_ns xaos_sub_first_match_ns)
      string(FIND "${output}" "\n${series}_count{subscription=\"${name}\"} "
             found)
      if(found EQUAL -1)
        message(FATAL_ERROR "'${EXE} ${args}' delivered to ${name} but "
                            "exported no ${series} series for it:\n${output}")
      endif()
    endforeach()
  endforeach()
endforeach()
