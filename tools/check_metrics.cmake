# End-to-end check of the metrics exposition surface:
#   1. a session with --metrics writes a Prometheus snapshot that the
#      in-tree lint (sesttop --lint) accepts, and the `metrics` /
#      `health` verbs answer well-formed results;
#   2. deterministic scope: the metrics responses AND the snapshot file
#      are byte-identical across --jobs 1 / --jobs 8 / --no-cache;
#   3. sesttop --once --file renders the dashboard from a snapshot;
#   4. sesttop --once --spawn scrapes a live sestd it launches itself
#      (after replaying traffic into it) — the live-console path.
# Run as: cmake -DSESTD=<path> -DSESTTOP=<path> -DWORKDIR=<dir>
#               -P check_metrics.cmake

set(SRC_A "int triangle(int n) { int s = 0; int i; for (i = 1; i <= n; i++) s += i; return s; } int main() { int n = read_int(); print_int(triangle(n)); return 0; }")
set(SRC_B "int triangle(int n) { int s = 0; int i; for (i = 1; i < n; i++) s += i; return s; } int main() { int n = read_int(); print_int(triangle(n)); return 0; }")

set(REQS "")
string(APPEND REQS "{\"op\":\"estimate\",\"source\":\"${SRC_A}\"}\n")
string(APPEND REQS "{\"op\":\"parse\",\"source\":\"${SRC_B}\"}\n")
string(APPEND REQS "{\"op\":\"estimate\",\"source\":\"${SRC_A}\"}\n")
string(APPEND REQS "{\"op\":\"optimize\",\"source\":\"${SRC_B}\",\"passes\":\"all\"}\n")
string(APPEND REQS "{\"op\":\"metrics\",\"scope\":\"deterministic\"}\n")
file(WRITE ${WORKDIR}/metrics_reqs.jsonl "${REQS}")
# health echoes config (jobs), so it is deliberately NOT part of the
# byte-identity stream; the live session below covers it.
file(WRITE ${WORKDIR}/metrics_reqs_live.jsonl "${REQS}{\"op\":\"health\"}\n")

function(run_sestd OUTFILE INFILE)
  execute_process(
    COMMAND ${SESTD} ${ARGN}
    INPUT_FILE ${INFILE}
    OUTPUT_FILE ${OUTFILE}
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "sestd ${ARGN} exited ${RC}:\n${ERR}")
  endif()
endfunction()

# --- 1+2: deterministic-scope sessions across scheduling variants -----------

run_sestd(${WORKDIR}/metrics_j1.out ${WORKDIR}/metrics_reqs.jsonl
          --metrics ${WORKDIR}/metrics_snap_j1.prom
          --metrics-scope deterministic)
run_sestd(${WORKDIR}/metrics_j8.out ${WORKDIR}/metrics_reqs.jsonl
          --jobs 8
          --metrics ${WORKDIR}/metrics_snap_j8.prom
          --metrics-scope deterministic)
run_sestd(${WORKDIR}/metrics_nocache.out ${WORKDIR}/metrics_reqs.jsonl
          --no-cache
          --metrics ${WORKDIR}/metrics_snap_nocache.prom
          --metrics-scope deterministic)

file(READ ${WORKDIR}/metrics_j1.out J1)
foreach(VARIANT j8 nocache)
  file(READ ${WORKDIR}/metrics_${VARIANT}.out GOT)
  if(NOT GOT STREQUAL "${J1}")
    message(FATAL_ERROR
      "deterministic metrics responses differ under '${VARIANT}'")
  endif()
endforeach()

file(READ ${WORKDIR}/metrics_snap_j1.prom SNAP1)
foreach(VARIANT j8 nocache)
  file(READ ${WORKDIR}/metrics_snap_${VARIANT}.prom GOT)
  if(NOT GOT STREQUAL "${SNAP1}")
    message(FATAL_ERROR
      "deterministic snapshot file differs under '${VARIANT}'")
  endif()
endforeach()

if(NOT J1 MATCHES "\"format\":\"prometheus\"")
  message(FATAL_ERROR "metrics verb missing prometheus format:\n${J1}")
endif()
if(NOT J1 MATCHES "\"scope\":\"deterministic\"")
  message(FATAL_ERROR "metrics verb missing scope echo:\n${J1}")
endif()
if(NOT SNAP1 MATCHES "# TYPE sest_service_requests counter")
  message(FATAL_ERROR "snapshot missing request counter family:\n${SNAP1}")
endif()
if(NOT SNAP1 MATCHES "sest_window_tick")
  message(FATAL_ERROR "snapshot missing window section:\n${SNAP1}")
endif()

# --- live-scope snapshot + the exposition lint ------------------------------

run_sestd(${WORKDIR}/metrics_live.out ${WORKDIR}/metrics_reqs_live.jsonl
          --jobs 8 --metrics ${WORKDIR}/metrics_snap_live.prom:2)
file(READ ${WORKDIR}/metrics_live.out LIVE_RESP)
if(NOT LIVE_RESP MATCHES "\"status\":\"ok\"")
  message(FATAL_ERROR "health verb missing status ok:\n${LIVE_RESP}")
endif()
if(NOT LIVE_RESP MATCHES "\"jobs\":8")
  message(FATAL_ERROR "health verb does not echo jobs:\n${LIVE_RESP}")
endif()

foreach(SNAP metrics_snap_j1.prom metrics_snap_live.prom)
  execute_process(
    COMMAND ${SESTTOP} --lint ${WORKDIR}/${SNAP}
    OUTPUT_VARIABLE LINT_OUT
    ERROR_VARIABLE LINT_ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "lint failed on ${SNAP}:\n${LINT_ERR}")
  endif()
endforeach()

file(READ ${WORKDIR}/metrics_snap_live.prom LIVE)
if(NOT LIVE MATCHES "sest_service_cache_cfg_misses")
  message(FATAL_ERROR "live snapshot missing cache tier gauges:\n${LIVE}")
endif()
if(NOT LIVE MATCHES "# TYPE sest_service_request_us histogram")
  message(FATAL_ERROR "live snapshot missing latency histogram:\n${LIVE}")
endif()

# --- 3: dashboard from a snapshot file --------------------------------------

execute_process(
  COMMAND ${SESTTOP} --once --file ${WORKDIR}/metrics_snap_live.prom
  OUTPUT_VARIABLE TOP_OUT
  ERROR_VARIABLE TOP_ERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "sesttop --file exited ${RC}:\n${TOP_ERR}")
endif()
foreach(NEEDLE "sesttop — sest-service/1" "p50" "p99" "queue-depth"
        "estimate" "response" "hit%")
  if(NOT TOP_OUT MATCHES "${NEEDLE}")
    message(FATAL_ERROR
      "sesttop --file output missing '${NEEDLE}':\n${TOP_OUT}")
  endif()
endforeach()

# --- 4: live scrape: sesttop spawns sestd, replays, then polls metrics ------

execute_process(
  COMMAND ${SESTTOP} --once --spawn ${SESTD}
          --replay ${WORKDIR}/metrics_reqs_live.jsonl
  OUTPUT_VARIABLE LIVE_OUT
  ERROR_VARIABLE LIVE_ERR
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "sesttop --spawn exited ${RC}:\n${LIVE_ERR}")
endif()
foreach(NEEDLE "sesttop — sest-service/1" "optimize" "hit%" "queue-depth")
  if(NOT LIVE_OUT MATCHES "${NEEDLE}")
    message(FATAL_ERROR
      "sesttop --spawn output missing '${NEEDLE}':\n${LIVE_OUT}")
  endif()
endforeach()
if(NOT LIVE_ERR MATCHES "replayed 6 request")
  message(FATAL_ERROR "--replay did not send 6 requests:\n${LIVE_ERR}")
endif()
