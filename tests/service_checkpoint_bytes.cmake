# Writes the same dollymp_service checkpoint twice, the second time with
# glibc filling fresh allocations with a poison byte, and requires the two
# files to be byte-identical: a snapshot must not carry uninitialized
# (padding) bytes.  Invoked by ctest:
#   cmake -DSERVICE=<dollymp_service> -DWORK_DIR=<dir> -P service_checkpoint_bytes.cmake
if(NOT SERVICE OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSERVICE=... -DWORK_DIR=... -P service_checkpoint_bytes.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(run plain perturbed)
  set(env "")
  if(run STREQUAL "perturbed")
    set(env MALLOC_PERTURB_=85)
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${env}
            "${SERVICE}" --cluster paper30 --rate 0.1 --horizon 120
            --checkpoint "${WORK_DIR}/${run}.ckpt"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${run} run: exit '${status}'\nstderr:\n${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/plain.ckpt" "${WORK_DIR}/perturbed.ckpt"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "the two checkpoints differ: a snapshot carries uninitialized bytes")
endif()
