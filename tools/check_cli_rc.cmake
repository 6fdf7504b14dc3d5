# Runs each service binary with malformed numeric flags and fails unless
# every run exits with the usage status 2 (not a truncated or ephemeral
# port). CTest invokes it as
#   cmake -DZIPPERD=<path> -DZIPPER_CLIENT=<path> -P tools/check_cli_rc.cmake
# The timeout turns a daemon that accepted the flag and started serving into
# a failure instead of a hang.
foreach(bin IN ITEMS "${ZIPPERD}" "${ZIPPER_CLIENT}")
  foreach(port IN ITEMS 70000 12x)
    execute_process(COMMAND "${bin}" --port ${port}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET TIMEOUT 10)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${bin} --port ${port}: exit '${rc}', expected 2")
    endif()
  endforeach()
endforeach()
