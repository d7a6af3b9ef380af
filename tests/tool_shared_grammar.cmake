# Runs the four tools on the one cluster grammar (Cluster::from_spec) and
# pins the flag rules around it: an explicit --cluster wins over the --gpus
# default, a DollyMP-only flag with a baseline is a usage error, and the
# deleted flags are unknown options.  Then pins the exit-code contract: 2
# for a usage error or an invalid configuration, 3 for a run-time error.
# Invoked by ctest:
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

# Exit 2: a value that leaves the configuration invalid is rejected while
# the flags are parsed, naming the flag.
foreach(tool SIM SWEEP CHAOS SERVICE)
  expect(${tool} 2 "--slot: SimConfig: slot_seconds must be > 0" --slot 0)
endforeach()
expect(SERVICE 2 "--checkpoint-every: ServiceConfig: checkpoint_interval_seconds" --checkpoint-every 0)
expect(SERVICE 2 "--rate: ArrivalConfig: rate_per_second must be > 0" --rate 0)
expect(SERVICE 2 "--diurnal: '' is not a number" --diurnal=)
# A switch takes no value, not even in the --flag=value form.
expect(SIM 2 "--quiet: takes no value" --quiet=1)
expect(SERVICE 2 "--json: takes no value" --json=yes)
expect(SERVICE 2 "--supervise: SupervisorOptions: checkpoint_stride_slots must be a multiple"
       --supervise --snapshot-base ckpt --snapshot-every 100)

# Exit 3: a run-time error, reported as "error: " and the message; a
# decoder names the row and field it choked on.
file(WRITE "${WORK_DIR}/bad_trace.csv" "job_id,arrival\nx,1\n")
file(WRITE "${WORK_DIR}/bad.log" "garbage")
expect(SIM 3 "error: CSV: row 1, field 'job_id'" --trace bad_trace.csv ${SIM_RUN})
expect(SIM 3 "error: trace_io: cannot open missing.csv" --trace missing.csv ${SIM_RUN})
expect(SIM 3 "error: load_log: bad.log is not a dollymp trace log" --verify-log bad.log ${SIM_RUN})
expect(SIM 3 "error: load_log: cannot open missing.log" --verify-log missing.log ${SIM_RUN})
expect(SIM 3 "error: save_results: cannot write" --out no/such/dir/out.csv ${SIM_RUN})
expect(SIM 3 "error: save_log: cannot write" --log-out no/such/dir/run.log ${SIM_RUN})
expect(SIM 3 "exceeds every server capacity" --compare --cluster paper30 --gpus 2 ${SIM_RUN})
expect(SIM 3 "exceeds every server capacity" --verify-replay --cluster paper30 --gpus 2 ${SIM_RUN})
expect(SWEEP 3 "error: cannot write no/such/dir/sweep.json" --out no/such/dir/sweep.json ${SWEEP_RUN})
