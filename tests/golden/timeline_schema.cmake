# Run one bench with --timeline at --jobs 1 and at --jobs 4, demand
# byte-identical artifacts, and check the limitpp-timeline-v1 shape:
#
#   cmake -DBENCH=<binary> -P timeline_schema.cmake
#
# Writes tl-j1.json and tl-j4.json into the working directory.

function(fail)
    message(FATAL_ERROR "${BENCH} --timeline: " ${ARGN})
endfunction()

foreach(jobs 1 4)
    execute_process(COMMAND ${BENCH} --timeline tl-j${jobs}.json
                            --jobs ${jobs}
                    OUTPUT_QUIET
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        fail("--jobs ${jobs} exited with status ${rc}")
    endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        tl-j1.json tl-j4.json
                RESULT_VARIABLE differs)
if(differs)
    fail("the artifact differs between --jobs 1 and --jobs 4")
endif()

file(READ tl-j1.json doc)
string(JSON schema GET "${doc}" schema)
if(NOT schema STREQUAL "limitpp-timeline-v1")
    fail("schema is '${schema}'")
endif()
string(JSON interval GET "${doc}" meta interval_ticks)
if(interval LESS 256)
    fail("interval_ticks ${interval} is below 256")
endif()
string(JSON sections LENGTH "${doc}" timeline)
if(NOT sections EQUAL 1)
    fail("expected one timeline section, found ${sections}")
endif()

string(JSON section GET "${doc}" timeline 0)
string(JSON num_cores GET "${section}" num_cores)
string(JSON num_slices GET "${section}" num_slices)
string(JSON num_events LENGTH "${section}" events)
set(cycles_col -1)
set(has_instructions FALSE)
math(EXPR last "${num_events} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${section}" events ${i})
    if(name STREQUAL "cycles")
        set(cycles_col ${i})
    elseif(name STREQUAL "instructions")
        set(has_instructions TRUE)
    endif()
endforeach()
if(cycles_col LESS 0 OR NOT has_instructions)
    fail("events lack cycles or instructions")
endif()

# Per-core slice shape: num_slices rows of one count per event.
string(JSON cores LENGTH "${section}" cores)
if(NOT cores EQUAL num_cores OR num_slices LESS 1)
    fail("${cores} cores for num_cores ${num_cores}, "
         "${num_slices} slices")
endif()
set(cycles_seen FALSE)
math(EXPR last_core "${cores} - 1")
foreach(c RANGE ${last_core})
    string(JSON slices GET "${section}" cores ${c} slices)
    string(JSON rows LENGTH "${slices}")
    if(NOT rows EQUAL num_slices)
        fail("core ${c} has ${rows} slices, not ${num_slices}")
    endif()
    math(EXPR last_row "${rows} - 1")
    foreach(r RANGE ${last_row})
        string(JSON width LENGTH "${slices}" ${r})
        if(NOT width EQUAL num_events)
            fail("core ${c} slice ${r} has ${width} counts")
        endif()
        if(NOT cycles_seen)
            string(JSON cycles GET "${slices}" ${r} ${cycles_col})
            if(cycles GREATER 0)
                set(cycles_seen TRUE)
            endif()
        endif()
    endforeach()
endforeach()
if(NOT cycles_seen)
    fail("no slice recorded any cycles")
endif()

string(JSON phases LENGTH "${section}" phases)
if(phases EQUAL 0)
    fail("no phases segmented")
endif()
message(STATUS "timeline schema ok: ${num_slices} slices, "
               "${phases} phase(s)")
