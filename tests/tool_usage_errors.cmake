# Runs the tools with a bad policy name, an empty list item (a trailing one
# too), a tuple with the wrong number of fields or a flag that contradicts
# --compare, and requires each to exit 2 with the named text on
# stderr: every such case fails while the options are parsed, so no run
# starts.  Then checks that --compare applies the DollyMP options to its
# DollyMP rows and leaves the baselines alone.  Invoked by ctest:
#   cmake -DSIM=<dollymp_sim> -DSERVICE=<dollymp_service> -DSWEEP=<dollymp_sweep>
#         -DCHAOS=<dollymp_chaos> -DWORK_DIR=<dir> -P tool_usage_errors.cmake
if(NOT SIM OR NOT SERVICE OR NOT SWEEP OR NOT CHAOS OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSIM=... -DSERVICE=... -DSWEEP=... -DCHAOS=... -DWORK_DIR=... -P tool_usage_errors.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Each case: tool|arguments (comma-separated)|text stderr must hold.
set(cases
  "SERVICE|--policy,bogus|--policy: unknown policy 'bogus'"
  "SIM|--compare,--scheduler,tetris|--compare runs every policy"
  "SWEEP|--policies,capacity,,tetris|--policies: unknown policy ''"
  "SWEEP|--seeds,1,,2|--seeds: '' is not a number"
  "SWEEP|--faults,crash,,all|--faults: make_fault_preset: unknown preset ''"
  "CHAOS|--seeds,1,,2|--seeds: '' is not a number"
  "SWEEP|--seeds,1,2,|--seeds: '' is not a number"
  "SWEEP|--policies,dollymp2,|--policies: unknown policy ''"
  "SIM|--failures,100:20:|--failures: '100:20:' has 3"
  "SERVICE|--diurnal,0.3:100:junk|--diurnal: '0.3:100:junk'")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 tool)
  list(GET fields 1 arguments)
  list(GET fields 2 needle)
  # The first comma-separated word is the flag, the rest its value.
  string(FIND "${arguments}" "," comma)
  string(SUBSTRING "${arguments}" 0 ${comma} flag)
  math(EXPR rest "${comma} + 1")
  string(SUBSTRING "${arguments}" ${rest} -1 value)
  if(flag STREQUAL "--compare")
    string(REPLACE "," ";" argv "${arguments}")
  else()
    set(argv "${flag}" "${value}")
  endif()
  execute_process(
    COMMAND "${${tool}}" ${argv}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${tool} ${argv}: expected exit 2, got '${status}'\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${tool} ${argv}: stderr does not hold \"${needle}\"\nstderr:\n${err}")
  endif()
endforeach()

# --compare with the DollyMP options: the DollyMP rows of the summary table
# (each row's first appearance) change, the baseline rows do not.
function(compare_rows result)
  execute_process(
    COMMAND "${SIM}" --compare --jobs 30 --failures 600:120 ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "dollymp_sim --compare ${ARGN}: exit ${status}\nstderr:\n${err}")
  endif()
  foreach(row capacity tetris dollymp0 dollymp2)
    string(REGEX MATCH "\n${row} [^\n]*" line "${out}")
    set(${result}_${row} "${line}" PARENT_SCOPE)
  endforeach()
endfunction()
compare_rows(plain)
compare_rows(tuned --straggler-aware --resilience)
foreach(row capacity tetris)
  if(NOT plain_${row} STREQUAL tuned_${row})
    message(FATAL_ERROR "--compare: DollyMP options moved the ${row} row:${plain_${row}}${tuned_${row}}")
  endif()
endforeach()
foreach(row dollymp0 dollymp2)
  if(plain_${row} STREQUAL tuned_${row})
    message(FATAL_ERROR "--compare: --straggler-aware --resilience left the ${row} row as it was:${plain_${row}}")
  endif()
endforeach()
