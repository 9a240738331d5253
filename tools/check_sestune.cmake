# End-to-end check for the sestune autotuner CLI:
#   1. a small-budget run over one suite program must succeed (every
#      winner differentially verified), write a sest-tune-report/1
#      document, and write the static winner as sest-tune-config/1;
#   2. the report must be byte-identical across --jobs 1 and --jobs 8
#      and across a repeated run (determinism contract of docs/TUNING.md);
#   3. sestc --validate-json must accept the report, and the report must
#      declare its three gates with their kinds;
#   4. sestc --tune-config must replay the written winner on a file.
# Run as: cmake -DSESTUNE=<path> -DSESTC=<path> -DWORKDIR=<dir> \
#               -P check_sestune.cmake

function(run_sestune OUTFILE)
  execute_process(
    COMMAND ${SESTUNE} ${ARGN}
    OUTPUT_FILE ${OUTFILE}
    ERROR_VARIABLE ERR
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "sestune ${ARGN} exited ${RC}:\n${ERR}")
  endif()
endfunction()

run_sestune(${WORKDIR}/sestune_j1.out
            --programs compress --budget 6 --jobs 1
            --report ${WORKDIR}/sestune_j1.json
            --best-config ${WORKDIR}/sestune_best.json)
run_sestune(${WORKDIR}/sestune_j8.out
            --programs compress --budget 6 --jobs 8
            --report ${WORKDIR}/sestune_j8.json)
run_sestune(${WORKDIR}/sestune_again.out
            --programs compress --budget 6 --jobs 1
            --report ${WORKDIR}/sestune_again.json)

foreach(VARIANT j8 again)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/sestune_j1.json ${WORKDIR}/sestune_${VARIANT}.json
    RESULT_VARIABLE DIFF)
  if(NOT DIFF EQUAL 0)
    message(FATAL_ERROR
      "tune report differs between --jobs 1 and variant '${VARIANT}'")
  endif()
endforeach()

file(READ ${WORKDIR}/sestune_j1.json REPORT)
if(NOT REPORT MATCHES "sest-tune-report/1")
  message(FATAL_ERROR "report is missing its schema marker")
endif()
# The gates scripts/check_gates.py evaluates against bench/tune_report.json.
foreach(GATE "tune.all_verified:hard"
             "tune.static_search_recovery:advisory"
             "tune.mean_config_overlap:advisory")
  string(REPLACE ":" ";" PARTS ${GATE})
  list(GET PARTS 0 NAME)
  list(GET PARTS 1 KIND)
  string(REPLACE "." "\\." NAME_RE ${NAME})
  if(NOT REPORT MATCHES "\"name\":\"${NAME_RE}\",\"kind\":\"${KIND}\"")
    message(FATAL_ERROR "report is missing the ${KIND} gate ${NAME}")
  endif()
endforeach()
file(READ ${WORKDIR}/sestune_best.json BEST)
if(NOT BEST MATCHES "sest-tune-config/1")
  message(FATAL_ERROR "best config is missing its schema marker")
endif()

execute_process(
  COMMAND ${SESTC} --validate-json ${WORKDIR}/sestune_j1.json
  RESULT_VARIABLE RC OUTPUT_QUIET ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "report failed --validate-json:\n${ERR}")
endif()

# The written winner must replay through sestc on a real file.
get_filename_component(HERE ${CMAKE_CURRENT_LIST_FILE} DIRECTORY)
execute_process(
  COMMAND ${SESTC} --tune-config ${WORKDIR}/sestune_best.json
          --input "12" ${HERE}/testdata/smoke.mc
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "sestc --tune-config replay exited ${RC}:\n${ERR}")
endif()
if(NOT OUT MATCHES "pipeline verification: ok")
  message(FATAL_ERROR "replay did not report pipeline verification:\n${OUT}")
endif()

message(STATUS "sestune end-to-end check passed")
