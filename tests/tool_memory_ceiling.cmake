# Runs dollymp_sim on a one-job trace whose job_id is the largest JobId,
# 2147483647, under DollyMP², inside a memory ceiling, and requires exit 0:
# per-job scheduler state must be sized by the jobs the run holds, not by
# the values of their ids.  A cache indexed by JobId asks for about 43 GB
# here and fails under the ceiling.  The ceiling is `ulimit -v` in a plain
# build; a sanitizer build reserves terabytes of shadow address space, so
# there it is the sanitizer allocator's max_allocation_size_mb instead.
# Invoked by ctest:
#   cmake -DSIM=<dollymp_sim> -DWORK_DIR=<dir> [-DSANITIZED=ON]
#         -P tool_memory_ceiling.cmake
if(NOT SIM OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSIM=... -DWORK_DIR=... [-DSANITIZED=ON] -P tool_memory_ceiling.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(ceiling_mb 1024)
file(WRITE "${WORK_DIR}/huge_id.csv"
     "job_id,job_name,app,arrival_s,phase,phase_name,tasks,cpu,mem_gb,theta_s,sigma_s,parents\n"
     "2147483647,huge-id,test,0,0,map,2,1,1,10,0,\n")
set(run "${SIM}" --trace huge_id.csv --scheduler dollymp2 --quiet)
if(SANITIZED)
  set(env "")
  foreach(var ASAN_OPTIONS TSAN_OPTIONS)
    set(options "max_allocation_size_mb=${ceiling_mb}")
    if(NOT "$ENV{${var}}" STREQUAL "")
      set(options "$ENV{${var}}:${options}")
    endif()
    list(APPEND env "${var}=${options}")
  endforeach()
  set(command ${CMAKE_COMMAND} -E env ${env} ${run})
else()
  math(EXPR ceiling_kb "${ceiling_mb} * 1024")
  set(command sh -c "ulimit -v ${ceiling_kb} && exec \"$@\"" sh ${run})
endif()
execute_process(
  COMMAND ${command}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "dollymp_sim on job_id 2147483647 under a ${ceiling_mb} MB ceiling: "
                      "exit '${status}'\nstderr:\n${err}")
endif()
