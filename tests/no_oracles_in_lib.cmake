# Fails when libsfc defines or references an oracle name.
#
#   cmake -DNM=<nm> -DLIB=<path to libsfc.a> -P no_oracles_in_lib.cmake
#
# The names are those of the references that live in sfc_oracles
# (accumulate_*_reference, GenericDescentCurve) and of the scalar-engine
# switch and key cache deleted with them (NNStretchEngine, KeyCache).
if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIB=<library> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
execute_process(COMMAND "${NM}" -C "${LIB}"
  OUTPUT_VARIABLE symbols
  ERROR_VARIABLE nm_error
  RESULT_VARIABLE nm_status)
if(NOT nm_status EQUAL 0)
  message(FATAL_ERROR "${NM} -C ${LIB} failed (${nm_status}): ${nm_error}")
endif()
if(symbols STREQUAL "")
  message(FATAL_ERROR "${NM} -C ${LIB} listed no symbols")
endif()
string(REGEX MATCHALL
  "[^\n]*(accumulate_[A-Za-z0-9_]*_reference|GenericDescentCurve|KeyCache|NNStretchEngine)[^\n]*"
  hits "${symbols}")
if(hits)
  list(JOIN hits "\n" listing)
  message(FATAL_ERROR "libsfc carries oracle symbols:\n${listing}")
endif()
message(STATUS "no oracle symbols in ${LIB}")
