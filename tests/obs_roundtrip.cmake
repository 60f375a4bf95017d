# Observability round trip, run as a CTest job through the real binary:
# the CI "observability round-trip" sequence at 400 sites and 10 days.
# The CLI writes every observability artifact (metrics in both formats,
# the timeline as JSONL and CSV, the trace, the run report single-process
# and through a simulated 4-worker cluster with 2 kills, and the cluster
# metrics, timeline and trace), the CLI linters check each one that has a
# linter, and CMake's own JSON parser reads metrics.json and every line of
# the cluster timeline. Expects -DCLI=<path to v6pool_cli> and
# -DWORK=<scratch dir>.
if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "obs_roundtrip.cmake needs -DCLI= and -DWORK=")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs the CLI in WORK and fails the test on a nonzero exit.
function(run_cli)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "v6pool_cli ${ARGN} failed (rc=${rc}):\n${out}${err}")
  endif()
endfunction()

set(scale --sites 400 --days 10)
set(report_flags ${scale} --epoch-days 2 --sample-days 2 --query-count 128)

run_cli(study ${scale} --metrics-out metrics.prom
        --sample-days 2 --timeline-out timeline.jsonl --trace-out trace.json)
run_cli(study ${scale} --metrics-out metrics.json --metrics-format json
        --sample-days 2 --timeline-out timeline.csv --timeline-format csv)
run_cli(obs-report ${report_flags} --out report.json)
run_cli(obs-report ${report_flags}
        --dist-workers 4 --dist-kills 2 --dist-chunk-days 2
        --cluster-metrics-out cluster_metrics_sim.prom
        --cluster-timeline-out cluster_timeline_sim.jsonl
        --cluster-trace-out cluster_trace_sim.json
        --out report_dist.json)

run_cli(lint-metrics metrics.prom)
run_cli(lint-timeline timeline.jsonl)
run_cli(lint-trace trace.json)
run_cli(lint-report report.json)
run_cli(lint-report report_dist.json)
run_cli(lint-metrics cluster_metrics_sim.prom)
run_cli(lint-trace cluster_trace_sim.json)

# The CSV timeline has no linter: it must open with its header row and
# carry rows after it.
file(STRINGS "${WORK}/timeline.csv" csv_head LIMIT_COUNT 2)
list(LENGTH csv_head csv_rows)
list(GET csv_head 0 csv_header)
if(NOT csv_header STREQUAL "begin,end,stage,kind,series,value" OR
   csv_rows LESS 2)
  message(FATAL_ERROR "timeline.csv: missing header or rows")
endif()

# metrics.json: one object whose metrics array holds named, typed samples.
file(READ "${WORK}/metrics.json" metrics)
string(JSON metric_count ERROR_VARIABLE json_err LENGTH "${metrics}" metrics)
if(json_err OR metric_count EQUAL 0)
  message(FATAL_ERROR "metrics.json: no metrics array (${json_err})")
endif()
math(EXPR last "${metric_count} - 1")
foreach(i RANGE ${last})
  foreach(member name type labels)
    string(JSON value ERROR_VARIABLE json_err GET "${metrics}" metrics ${i}
           ${member})
    if(json_err)
      message(FATAL_ERROR "metrics.json: metric ${i}: ${json_err}")
    endif()
  endforeach()
endforeach()
string(JSON span_count ERROR_VARIABLE json_err LENGTH "${metrics}" spans)
if(json_err OR span_count EQUAL 0)
  message(FATAL_ERROR "metrics.json: no spans array (${json_err})")
endif()

# The cluster timeline: every line one object with a worker, the window
# bounds and a stage.
file(READ "${WORK}/cluster_timeline_sim.jsonl" timeline)
set(windows 0)
while(NOT timeline STREQUAL "")
  string(FIND "${timeline}" "\n" nl)
  if(nl EQUAL -1)
    message(FATAL_ERROR "cluster timeline: last line has no newline")
  endif()
  string(SUBSTRING "${timeline}" 0 ${nl} line)
  math(EXPR next "${nl} + 1")
  string(SUBSTRING "${timeline}" ${next} -1 timeline)
  math(EXPR windows "${windows} + 1")
  foreach(member worker begin end stage)
    string(JSON value ERROR_VARIABLE json_err GET "${line}" ${member})
    if(json_err)
      message(FATAL_ERROR "cluster timeline line ${windows}: ${json_err}")
    endif()
  endforeach()
endwhile()
if(windows EQUAL 0)
  message(FATAL_ERROR "cluster timeline is empty")
endif()

file(REMOVE_RECURSE "${WORK}")
message(STATUS
        "obs round trip: every artifact lints clean; metrics.json holds "
        "${metric_count} metrics, the cluster timeline ${windows} windows")
