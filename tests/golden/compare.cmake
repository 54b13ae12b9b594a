# Run one bench binary at default flags and compare its stdout byte
# for byte with the committed table:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<file> -P compare.cmake
#
# Regenerate a golden only for a deliberate change to a published
# table, by running the bench from a scratch directory and copying its
# stdout over the file here.

execute_process(COMMAND ${BENCH}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${OUT})
    endif()
    message(FATAL_ERROR "stdout of ${BENCH} (${OUT}) differs from ${GOLDEN}")
endif()
