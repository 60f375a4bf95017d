# Distributed-collection identity gate, run as a CTest job through the
# real binary: the CLI collects the same study single-process, then
# through a simulated 4-worker coordinator/worker cluster with exactly 2
# workers killed mid-run, in memory and out of core — and the saved
# corpus snapshots must be byte-identical. The V6DIST02 frame log the
# cluster produced must pass the protocol linter. Expects
# -DCLI=<path to v6pool_cli> and -DWORK=<scratch dir>.
if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "dist_identity.cmake needs -DCLI= and -DWORK=")
endif()

file(MAKE_DIRECTORY "${WORK}")
set(common study --sites 300 --days 10 --threads 2 --seed 53 --collect-only)

execute_process(
  COMMAND ${CLI} ${common} --save-corpus ${WORK}/single.corpus
  RESULT_VARIABLE single_rc OUTPUT_QUIET)
if(NOT single_rc EQUAL 0)
  message(FATAL_ERROR "single-process study failed (rc=${single_rc})")
endif()

execute_process(
  COMMAND ${CLI} ${common} --dist-workers 4 --dist-kills 2
          --dist-chunk-days 2 --save-corpus ${WORK}/dist.corpus
          --frames-out ${WORK}/frames.log
  RESULT_VARIABLE dist_rc OUTPUT_QUIET)
if(NOT dist_rc EQUAL 0)
  message(FATAL_ERROR "distributed study failed (rc=${dist_rc})")
endif()

execute_process(
  COMMAND ${CLI} ${common} --dist-workers 4 --dist-kills 2
          --dist-chunk-days 2 --memory-budget-mb 1
          --save-corpus ${WORK}/dist_spill.corpus
  RESULT_VARIABLE spill_rc OUTPUT_QUIET)
if(NOT spill_rc EQUAL 0)
  message(FATAL_ERROR "distributed spilled study failed (rc=${spill_rc})")
endif()

foreach(variant dist dist_spill)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/single.corpus ${WORK}/${variant}.corpus
    RESULT_VARIABLE compare_rc)
  if(NOT compare_rc EQUAL 0)
    message(FATAL_ERROR "snapshots differ between single-process and "
                        "4-worker/2-kill runs (${variant})")
  endif()
endforeach()

execute_process(
  COMMAND ${CLI} lint-dist ${WORK}/frames.log
  RESULT_VARIABLE lint_rc OUTPUT_QUIET)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "frame log failed lint-dist (rc=${lint_rc})")
endif()

file(REMOVE_RECURSE "${WORK}")
message(STATUS
        "dist identity: snapshots byte-identical under 4 workers + 2 kills, "
        "in memory and spilled")
