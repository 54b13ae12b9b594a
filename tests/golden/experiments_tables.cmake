# Check that EXPERIMENTS.md quotes the tables the benches print:
#
#   cmake -DGOLDEN_DIR=<tests/golden> -DEXPERIMENTS=<EXPERIMENTS.md> \
#         -P experiments_tables.cmake
#
# Some benches end their stdout with an "EXPERIMENTS.md (Ex) markdown:"
# block, and the goldens in GOLDEN_DIR pin those blocks byte for byte.
# Every `|` row of every such block must appear verbatim, as a whole
# line, in EXPERIMENTS.md. When a golden is regenerated for a
# deliberate table change, paste its new rows into EXPERIMENTS.md.

file(READ ${EXPERIMENTS} doc)
set(doc "\n${doc}\n")

set(marker_regex "EXPERIMENTS\\.md \\(E[0-9]+\\) markdown:\n")
file(GLOB goldens ${GOLDEN_DIR}/*.txt)
set(blocks 0)
set(missing 0)
foreach(golden IN LISTS goldens)
    file(READ ${golden} text)
    while(text MATCHES "${marker_regex}")
        string(FIND "${text}" "${CMAKE_MATCH_0}" at)
        string(LENGTH "${CMAKE_MATCH_0}" len)
        math(EXPR at "${at} + ${len}")
        string(SUBSTRING "${text}" ${at} -1 text)
        math(EXPR blocks "${blocks} + 1")
        set(rows 0)
        # Walk the block's rows: consecutive lines starting with '|'.
        while(text MATCHES "^\\|")
            string(FIND "${text}" "\n" eol)
            if(eol EQUAL -1)
                set(row "${text}")
                set(text "")
            else()
                string(SUBSTRING "${text}" 0 ${eol} row)
                math(EXPR eol "${eol} + 1")
                string(SUBSTRING "${text}" ${eol} -1 text)
            endif()
            math(EXPR rows "${rows} + 1")
            string(FIND "${doc}" "\n${row}\n" found)
            if(found EQUAL -1)
                message(SEND_ERROR
                        "${golden}: row missing from ${EXPERIMENTS}:\n"
                        "  ${row}")
                math(EXPR missing "${missing} + 1")
            endif()
        endwhile()
        if(rows EQUAL 0)
            message(SEND_ERROR "${golden}: empty EXPERIMENTS.md block")
        endif()
    endwhile()
endforeach()

if(blocks EQUAL 0)
    message(FATAL_ERROR "no EXPERIMENTS.md markdown blocks in ${GOLDEN_DIR}")
endif()
if(missing GREATER 0)
    message(FATAL_ERROR
            "${missing} table row(s) in the goldens are missing from "
            "${EXPERIMENTS}")
endif()
message(STATUS "${blocks} EXPERIMENTS.md blocks match ${EXPERIMENTS}")
