# Runs the tools with malformed numeric flag values and requires each to
# exit 2 with the flag and the bad text on stderr: never a signal, never a
# silent truncation.  Every spelling fails while the options are parsed, so
# no run starts.  Invoked by ctest:
#   cmake -DSIM=<dollymp_sim> -DSERVICE=<dollymp_service> -DSWEEP=<dollymp_sweep>
#         -DCHAOS=<dollymp_chaos> -DWORK_DIR=<dir> -P tool_number_flags.cmake
if(NOT SIM OR NOT SERVICE OR NOT SWEEP OR NOT CHAOS OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSIM=... -DSERVICE=... -DSWEEP=... -DCHAOS=... -DWORK_DIR=... -P tool_number_flags.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Each case: tool|flag|value|the bad text the message must quote.
set(cases
  "SERVICE|--cluster|google:abc|abc"
  "SERVICE|--cluster|uniform:3:x:4|x"
  "SERVICE|--cluster|google:-5|-5"
  "SERVICE|--kill-at|5,1x|1x"
  "SIM|--jobs|abc|abc"
  "SIM|--jobs|-3|-3"
  "SIM|--seed|x|x"
  "SIM|--failures|1:x|x"
  "SIM|--servers|99999999999999999999|99999999999999999999"
  "SIM|--clones|2x|2x"
  "SIM|--cluster|google:30000x|30000x"
  "SIM|--scheduler|dollympz|z"
  "SWEEP|--threads|-1|-1"
  "SWEEP|--seeds|1,x|x"
  "CHAOS|--gap|1.5s|1.5s")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 tool)
  list(GET fields 1 flag)
  list(GET fields 2 value)
  list(GET fields 3 bad)
  execute_process(
    COMMAND "${${tool}}" "${flag}" "${value}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${tool} ${flag} ${value}: expected exit 2, got '${status}'\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "${flag}: '${bad}'" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${tool} ${flag} ${value}: stderr does not name ${flag} and '${bad}'\nstderr:\n${err}")
  endif()
endforeach()

# A script command with a bad number stops the script like any other
# failing command (exit 3), naming the field.
set(script "${WORK_DIR}/bad_quarantine.txt")
file(WRITE "${script}" "run 1\nfork f quarantine=1x\nstatus\n")
execute_process(
  COMMAND "${SERVICE}" --cluster paper30 --rate 0.1 --script "${script}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "3" OR NOT err MATCHES "quarantine: '1x'")
  message(FATAL_ERROR "fork quarantine=1x: expected exit 3 naming quarantine, got '${status}'\nstderr:\n${err}")
endif()
