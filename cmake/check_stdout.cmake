# Runs DRIVER and fails, printing a unified diff, unless it exits 0 and its
# stdout equals the file EXPECTED. ACTUAL receives the stdout.
#
#   cmake -DDRIVER=<exe> -DEXPECTED=<file> -DACTUAL=<file> -P check_stdout.cmake
execute_process(COMMAND ${DRIVER} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${exit_code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
  message(FATAL_ERROR "stdout of ${DRIVER} differs from ${EXPECTED}")
endif()
