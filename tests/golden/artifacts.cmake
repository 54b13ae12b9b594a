# Run one bench with --trace, --timeline and --profile together,
# demand all three files, and demand that every key of the trace's
# "metrics" block is in the profile's "meta" with the same value (both
# come from one counter list). With REPLAYS true, also demand that the
# run replayed a declared loop (superblock.ops_replayed > 0), unless
# LIMITPP_FORCE_NO_BATCH selects the per-op scheduler, which never
# replays:
#
#   cmake -DBENCH=<binary> [-DREPLAYS=1] -P artifacts.cmake
#
# Writes t.json, tl.json and p.json into the working directory.

function(fail)
    message(FATAL_ERROR "${BENCH} artifacts: " ${ARGN})
endfunction()

file(REMOVE t.json tl.json p.json)
execute_process(COMMAND ${BENCH} --trace t.json --timeline tl.json
                        --profile p.json
                OUTPUT_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    fail("exited with status ${rc}")
endif()
foreach(file t.json tl.json p.json)
    if(NOT EXISTS ${CMAKE_CURRENT_BINARY_DIR}/${file})
        fail("wrote no ${file}")
    endif()
endforeach()

# Parse each document once: the trace can run to megabytes.
file(READ t.json trace)
string(JSON metrics GET "${trace}" metrics)
file(READ p.json profile)
string(JSON meta GET "${profile}" meta)
string(JSON count LENGTH "${metrics}")
if(count EQUAL 0)
    fail("the trace's metrics block is empty")
endif()
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
    string(JSON key MEMBER "${metrics}" ${i})
    string(JSON value GET "${metrics}" ${key})
    string(JSON stamped ERROR_VARIABLE missing GET "${meta}" ${key})
    if(missing)
        fail("the profile meta lacks trace metric '${key}'")
    endif()
    # Counts must match digit for digit; a ratio is compared as a
    # number, since string(JSON) re-renders it at full precision.
    set(differs FALSE)
    if(value MATCHES "^[0-9]+$")
        if(NOT stamped STREQUAL value)
            set(differs TRUE)
        endif()
    elseif(NOT stamped EQUAL value)
        set(differs TRUE)
    endif()
    if(differs)
        fail("'${key}' is ${value} in the trace, ${stamped} in the "
             "profile")
    endif()
endforeach()
set(per_op "$ENV{LIMITPP_FORCE_NO_BATCH}")
if(REPLAYS AND (per_op STREQUAL "" OR per_op STREQUAL "0"))
    string(JSON replayed GET "${meta}" superblock.ops_replayed)
    if(NOT replayed GREATER 0)
        fail("superblock.ops_replayed is ${replayed}: the run replayed "
             "no declared loop")
    endif()
endif()
message(STATUS "artifacts ok: all ${count} trace metrics are in the "
               "profile meta")
