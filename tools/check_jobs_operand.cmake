# Verifies a CLI's --jobs operand handling: a non-numeric, negative,
# partly numeric, out-of-range or empty value must exit 2 (usage error)
# and name the flag, never silently mean "all cores" or a huge count.
# Run as: cmake -DTOOL=<path> [-DINPUT=<file>] -P check_jobs_operand.cmake
foreach(BAD "foo" "-3" "2x" "4294967296" "")
  execute_process(
    COMMAND ${TOOL} --jobs "${BAD}" ${INPUT}
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR
      "${TOOL} --jobs '${BAD}' exited ${RC}; expected 2:\n${OUT}${ERR}")
  endif()
  if(NOT "${ERR}" MATCHES "--jobs requires a non-negative integer")
    message(FATAL_ERROR
      "${TOOL} --jobs '${BAD}' did not name the bad operand:\n${ERR}")
  endif()
endforeach()
