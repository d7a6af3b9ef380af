# Runs dollymp_service --script on scripts whose second command fails and
# requires exit code 3 with the third command never run.  Invoked by ctest:
#   cmake -DSERVICE=<dollymp_service> -DWORK_DIR=<dir> -P service_script_abort.cmake
if(NOT SERVICE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSERVICE=... -DWORK_DIR=... -P service_script_abort.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Each failing second line: a fork without a name, and every malformed
# slot count run/advance must reject.
set(bad_lines "fork" "run" "run abc" "run -5" "run 3x" "advance 1.5")
set(index 0)
foreach(bad IN LISTS bad_lines)
  set(script "${WORK_DIR}/abort_${index}.txt")
  file(WRITE "${script}" "run 1\n${bad}\nstatus\n")
  execute_process(
    COMMAND "${SERVICE}" --cluster paper30 --rate 0.1 --script "${script}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status EQUAL 3)
    message(FATAL_ERROR "'${bad}': expected exit 3, got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "error: ")
    message(FATAL_ERROR "'${bad}': no error reported\nstderr:\n${err}")
  endif()
  if(out MATCHES "> status")
    message(FATAL_ERROR "'${bad}': the line after the failing one ran\nstdout:\n${out}")
  endif()
  math(EXPR index "${index} + 1")
endforeach()

# A well-formed script still runs to the end and exits 0.
set(script "${WORK_DIR}/ok.txt")
file(WRITE "${script}" "run 1\nadvance 0\nstatus\n")
execute_process(
  COMMAND "${SERVICE}" --cluster paper30 --rate 0.1 --script "${script}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 0 OR NOT out MATCHES "> status")
  message(FATAL_ERROR "good script: expected exit 0 through 'status', got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
