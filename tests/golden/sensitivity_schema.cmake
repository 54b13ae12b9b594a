# Run bench_e15_sensitivity with --profile at --jobs 1 and at --jobs 4,
# check the limitpp-sensitivity-v1 schema and the axis each scenario
# ranks first, and demand the same report from both runs once the
# `meta.jobs` stamp is removed:
#
#   cmake -DBENCH=<binary> -P sensitivity_schema.cmake
#
# Writes e15-j1.json and e15-j4.json into the working directory.

function(fail)
    message(FATAL_ERROR "${BENCH} --profile: " ${ARGN})
endfunction()

foreach(jobs 1 4)
    execute_process(COMMAND ${BENCH} --profile --profile-out e15-j${jobs}.json
                            --jobs ${jobs}
                    OUTPUT_QUIET
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        fail("--jobs ${jobs} exited with status ${rc}")
    endif()
    file(READ e15-j${jobs}.json j${jobs})
endforeach()

string(JSON schema GET "${j1}" schema)
if(NOT schema STREQUAL "limitpp-sensitivity-v1")
    fail("schema is '${schema}'")
endif()

# Each scenario's planted bottleneck ranks first.
string(JSON sections LENGTH "${j1}" sensitivity)
math(EXPR last "${sections} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${j1}" sensitivity ${i} name)
    string(JSON ranked_${name} GET "${j1}" sensitivity ${i} axes 0 axis)
endforeach()
foreach(pair stream:l1_size overflow:pmu_width spin:quantum)
    string(REPLACE ":" ";" pair "${pair}")
    list(GET pair 0 name)
    list(GET pair 1 axis)
    if(NOT DEFINED ranked_${name})
        fail("no '${name}' sensitivity section")
    elseif(NOT ranked_${name} STREQUAL axis)
        fail("'${name}' ranks '${ranked_${name}}' first, not '${axis}'")
    endif()
endforeach()

# --jobs changes only the meta.jobs stamp.
foreach(jobs 1 4)
    string(JSON j${jobs} REMOVE "${j${jobs}}" meta jobs)
endforeach()
if(NOT j1 STREQUAL j4)
    fail("the report differs between --jobs 1 and --jobs 4 beyond "
         "meta.jobs")
endif()
message(STATUS "sensitivity schema ok: stream -> l1_size, "
               "overflow -> pmu_width, spin -> quantum")
