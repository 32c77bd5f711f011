# Fails when any xaos library object references libgcc's __popcount*
# helpers: the baseline x86-64 build has no POPCNT instruction, so a
# __builtin_popcount* call there becomes an out-of-line library call on a
# hot path. Run as
#   cmake -DNM=<nm> -DLIBRARIES=<lib1;lib2;...> -P check_no_popcount.cmake
if(NOT NM OR NOT LIBRARIES)
  message(FATAL_ERROR "usage: -DNM=<nm> -DLIBRARIES=<libs> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
set(offenders "")
foreach(library IN LISTS LIBRARIES)
  execute_process(COMMAND ${NM} -u ${library}
                  OUTPUT_VARIABLE undefined
                  RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${NM} -u ${library} failed (${result})")
  endif()
  if(undefined MATCHES "__popcount")
    list(APPEND offenders ${library})
  endif()
endforeach()
if(offenders)
  message(FATAL_ERROR "libgcc popcount call referenced by: ${offenders}")
endif()
list(LENGTH LIBRARIES count)
message(STATUS "no __popcount references in ${count} libraries")
