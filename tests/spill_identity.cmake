# Enforced-budget spill gate, run as a CTest job: the CLI studies the
# same world twice — unlimited memory, then a 1 MiB collection budget
# that forces many on-disk runs — and the two saved corpus snapshots
# must be byte-identical, and so must the two /48 releases (the budgeted
# run streams its release from the on-disk runs). This is the out-of-core
# engine's headline invariant checked end to end through the real binary,
# not a test harness. Eight collector shards start with empty tables that
# together already exceed 1 MiB, so the budgeted run spills at daily
# barriers; the gate parses the CLI's `out-of-core :` line and fails
# unless it reports at least 2 spills and 2 run files, so the merge it
# checks really folds several runs. Expects -DCLI=<path to v6pool_cli>
# and -DWORK=<scratch dir>.
if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "spill_identity.cmake needs -DCLI= and -DWORK=")
endif()

file(MAKE_DIRECTORY "${WORK}")
set(common study --sites 400 --days 10 --threads 4 --collector-threads 8
           --seed 97)

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
  RESULT_VARIABLE spilled_rc OUTPUT_VARIABLE spilled_out)
if(NOT spilled_rc EQUAL 0)
  message(FATAL_ERROR "budgeted study failed (rc=${spilled_rc})")
endif()
if(NOT spilled_out MATCHES
   "out-of-core *: ([0-9,]+) spills?, ([0-9,]+) run files?")
  message(FATAL_ERROR "budgeted study printed no out-of-core line:\n"
                      "${spilled_out}")
endif()
string(REPLACE "," "" spills "${CMAKE_MATCH_1}")
string(REPLACE "," "" run_files "${CMAKE_MATCH_2}")
if(spills LESS 2 OR run_files LESS 2)
  message(FATAL_ERROR "the 1 MiB budget spilled ${spills} time(s) into "
                      "${run_files} run file(s); the gate needs at least 2 "
                      "runs to merge")
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
               "under 1 MiB budget (${spills} spills, ${run_files} run files)")
