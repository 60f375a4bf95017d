# Enforced-budget spill gate, run as a CTest job: the CLI studies the
# same world twice — unlimited memory, then a 1 MiB collection budget
# that forces many on-disk runs — and the two saved corpus snapshots
# must be byte-identical, and so must the two /48 releases (the budgeted
# run streams its release from the on-disk runs). This is the out-of-core
# engine's headline invariant checked end to end through the real binary,
# not a test harness. Expects -DCLI=<path to v6pool_cli> and
# -DWORK=<scratch dir>.
if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "spill_identity.cmake needs -DCLI= and -DWORK=")
endif()

file(MAKE_DIRECTORY "${WORK}")
set(common study --sites 400 --days 10 --threads 4 --seed 97)

execute_process(
  COMMAND ${CLI} ${common} --save-corpus ${WORK}/in_memory.corpus
          --release ${WORK}/in_memory.release
  RESULT_VARIABLE in_memory_rc OUTPUT_QUIET)
if(NOT in_memory_rc EQUAL 0)
  message(FATAL_ERROR "in-memory study failed (rc=${in_memory_rc})")
endif()

execute_process(
  COMMAND ${CLI} ${common} --memory-budget-mb 1
          --spill-dir ${WORK}/runs --save-corpus ${WORK}/spilled.corpus
          --release ${WORK}/spilled.release
  RESULT_VARIABLE spilled_rc OUTPUT_QUIET)
if(NOT spilled_rc EQUAL 0)
  message(FATAL_ERROR "budgeted study failed (rc=${spilled_rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK}/in_memory.corpus ${WORK}/spilled.corpus
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "snapshots differ between in-memory and 1 MiB-budget runs")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK}/in_memory.release ${WORK}/spilled.release
  RESULT_VARIABLE release_rc)
if(NOT release_rc EQUAL 0)
  message(FATAL_ERROR
          "/48 releases differ between in-memory and 1 MiB-budget runs")
endif()

file(REMOVE_RECURSE "${WORK}")
message(STATUS "spill identity: snapshots and releases byte-identical "
               "under 1 MiB budget")
