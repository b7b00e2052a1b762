# Run one bench binary and compare its stdout byte for byte with the
# committed golden file.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> \
#         -P check_golden.cmake
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${ACTUAL})
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "actual output kept in ${ACTUAL}")
endif()
