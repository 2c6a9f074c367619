# The drivers' flag surface, end to end. Each driver must reject a flag it
# does not read (exit 1 with "unknown flag --NAME"), so a value another
# driver reads can never be silently ignored; and the values that only one
# driver reads must be accepted by that driver and take effect.
#
# Registered with ctest (tests/CMakeLists.txt):
#   cmake -DSERVE_LOAD=<bench_serve_load> -DDYNAMIC=<dynamic_service>
#         -DSTREAMING=<streaming_service> -DWORK=<scratch dir>
#         -P driver_flags_test.cmake

foreach(var SERVE_LOAD DYNAMIC STREAMING WORK)
  if(NOT ${var})
    message(FATAL_ERROR "driver_flags_test: -D${var}= is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# expect_rejected(<flag> <driver> [args...]): exit 1, naming the flag.
function(expect_rejected flag)
  string(REGEX REPLACE "=.*" "" name "${flag}")
  execute_process(COMMAND ${ARGN} ${flag}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${ARGV1} ${flag}: exit ${code}, expected 1\n${err}")
  endif()
  string(FIND "${err}" "unknown flag ${name}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "${ARGV1} ${flag}: no 'unknown flag ${name}' on stderr:\n${err}")
  endif()
  message(STATUS "rejected: ${ARGV1} ${flag}")
endfunction()

# expect_ok(<label> <driver> [args...]): exit 0; stdout lands in
# LAST_STDOUT.
function(expect_ok label)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${label}: exit ${code}, expected 0\n${out}\n${err}")
  endif()
  set(LAST_STDOUT "${out}" PARENT_SCOPE)
  message(STATUS "accepted: ${label}")
endfunction()

function(expect_file_contains path needle)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "${path} was not written")
  endif()
  file(READ "${path}" body)
  string(FIND "${body}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${path} lacks '${needle}'")
  endif()
endfunction()

# A serving, telemetry or reload value that the load harness never reads.
expect_rejected(--serve-deadline-ms=5 "${SERVE_LOAD}")
expect_rejected(--serve-reload-period=2 "${SERVE_LOAD}")
expect_rejected(--statusz-every=2 "${SERVE_LOAD}")
# The streaming service swaps on every publish; it has no reload period.
expect_rejected(--serve-reload-period=2 "${STREAMING}")
# Neither example runs the load harness.
expect_rejected(--load-report=x.json "${STREAMING}")
expect_rejected(--load-wall "${DYNAMIC}")

# bench_serve_load's own values. The storm rotation includes corrupt
# artifacts only under --load-swap-storm, so a rejected swap shows it
# took effect; --load-wall is checked on its own, short run.
expect_ok("bench_serve_load storm and outputs" "${SERVE_LOAD}"
  --scratch-dir=serve_work --load-rps=200 --load-duration-ms=200
  --load-swap-storm --load-swap-period-ms=40
  --load-report=report.json --telemetry-jsonl=events.jsonl
  --statusz-out=statusz.txt)
expect_file_contains("${WORK}/report.json" "\"swap_period_ms\": 40")
file(READ "${WORK}/report.json" report)
if(report MATCHES "\"rejected\": 0,")
  message(FATAL_ERROR "--load-swap-storm rejected no corrupt artifact")
endif()
expect_file_contains("${WORK}/events.jsonl" "\"type\"")
expect_file_contains("${WORK}/statusz.txt" "privrec serve statusz")
expect_ok("bench_serve_load wall mode" "${SERVE_LOAD}"
  --scratch-dir=serve_work --load-rps=200 --load-duration-ms=50
  --load-wall --load-threads=2 --load-report=wall.json)
expect_file_contains("${WORK}/wall.json" "\"mode\": \"wall\", \"threads\": 2")

# dynamic_service's own values: request deadline, reload period, statusz
# cadence and path, and the wide-event stream. Two weekly releases at a
# reload period of 2 hot-swap only the first.
expect_ok("dynamic_service driver-only flags" "${DYNAMIC}"
  --weeks=2 --total_epsilon=0.4 --artifact-dir=dynamic_artifacts
  --serve-deadline-ms=500 --serve-reload-period=2 --statusz-every=1
  --statusz-out=dynamic_statusz.txt --telemetry-jsonl=dynamic.jsonl
  --telemetry-sample-every=1)
string(FIND "${LAST_STDOUT}" "serving runtime: 1 swaps" at)
if(at EQUAL -1)
  message(FATAL_ERROR "dynamic_service ignored --serve-reload-period=2:\n"
                      "${LAST_STDOUT}")
endif()
expect_file_contains("${WORK}/dynamic_statusz.txt" "privrec serve statusz")
expect_file_contains("${WORK}/dynamic.jsonl" "\"deadline_ms\": 500")

# streaming_service's own value: the probe request's deadline.
expect_ok("streaming_service driver-only flags" "${STREAMING}"
  --dir=stream_dir --iters=24 --users=30 --items=20
  --serve-deadline-ms=500 --stream-republish-every=8)

file(REMOVE_RECURSE "${WORK}")
