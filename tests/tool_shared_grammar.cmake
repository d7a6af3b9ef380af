# Runs the four tools on the one cluster grammar (Cluster::from_spec) and
# pins the flag rules around it: an explicit --cluster wins over the --gpus
# default, a DollyMP-only flag with a baseline is a usage error, and the
# deleted flags are unknown options.  Invoked by ctest:
#   cmake -DSIM=<dollymp_sim> -DSERVICE=<dollymp_service> -DSWEEP=<dollymp_sweep>
#         -DCHAOS=<dollymp_chaos> -DWORK_DIR=<dir> -P tool_shared_grammar.cmake
if(NOT SIM OR NOT SERVICE OR NOT SWEEP OR NOT CHAOS OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSIM=... -DSERVICE=... -DSWEEP=... -DCHAOS=... -DWORK_DIR=... -P tool_shared_grammar.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs TOOL with the remaining arguments, requires exit CODE and, when
# NEEDLE is not empty, that stderr contains it.
function(expect tool code needle)
  execute_process(
    COMMAND "${${tool}}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "${code}")
    message(FATAL_ERROR "${tool} ${ARGN}: expected exit ${code}, got '${status}'\nstderr:\n${err}")
  endif()
  if(needle)
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${tool} ${ARGN}: stderr does not contain '${needle}'\nstderr:\n${err}")
    endif()
  endif()
endfunction()

# A tiny run per tool.
set(SIM_RUN --jobs 3 --quiet)
set(SWEEP_RUN --jobs 3 --replications 1 --policies dollymp2 --quiet)
set(CHAOS_RUN --jobs 3 --seeds 1 --classes crash --policies base --quiet)
set(SERVICE_RUN --rate 0.1 --horizon 20)

# Every tool speaks every sized form of the grammar.
foreach(tool SIM SWEEP CHAOS SERVICE)
  foreach(spec google-trace:60 gpu:16)
    expect(${tool} 0 "" --cluster ${spec} ${${tool}_RUN})
  endforeach()
endforeach()

# --gpus runs on the gpu-pod inventory by default, but an explicit
# --cluster wins: the trainers' GPU demand fits no paper30 server.
expect(SIM 0 "" --gpus 2 ${SIM_RUN})
expect(SIM 3 "exceeds every server capacity" --cluster paper30 --gpus 2 ${SIM_RUN})
expect(SWEEP 3 "exceeds every server capacity" --cluster paper30 --gpus 2 ${SWEEP_RUN})

# DollyMP-only flags are rejected with a baseline scheduler.
expect(SIM 2 "--scheduler: policy 'capacity'" --scheduler capacity --straggler-aware ${SIM_RUN})
expect(SIM 2 "--scheduler: policy 'capacity'" --scheduler capacity --resilience ${SIM_RUN})

# Deleted flags: the clone budget is the K of dollymp<K>, and --cluster
# replaces --inventory/--servers.
expect(SIM 2 "unknown option --clones" --clones 1 ${SIM_RUN})
expect(SIM 2 "unknown option --inventory" --inventory google-trace ${SIM_RUN})
expect(SIM 2 "unknown option --servers" --servers 60 ${SIM_RUN})
expect(CHAOS 2 "unknown option --inventory" --inventory paper30 ${CHAOS_RUN})
expect(CHAOS 2 "unknown option --servers" --servers 60 ${CHAOS_RUN})
