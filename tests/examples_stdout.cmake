# Runs each example binary and compares its stdout byte for byte with the
# recording in tests/testdata/<example>.stdout. The simulations run in
# virtual time and are deterministic per seed, so any difference is a
# behaviour change: review it, and re-record the file only when the change
# is intended.
#
#   cmake -DBIN_DIR=<dir with the examples> -DDATA_DIR=<tests/testdata>
#         -DEXAMPLES="quickstart;..." -P examples_stdout.cmake

set(failed "")
foreach(name IN LISTS EXAMPLES)
  execute_process(COMMAND "${BIN_DIR}/${name}"
                  OUTPUT_VARIABLE actual
                  RESULT_VARIABLE rc)
  file(READ "${DATA_DIR}/${name}.stdout" expected)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} exited with ${rc}")
    list(APPEND failed ${name})
  elseif(NOT actual STREQUAL expected)
    set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.stdout.actual")
    file(WRITE "${actual_file}" "${actual}")
    execute_process(COMMAND diff -u "${DATA_DIR}/${name}.stdout" "${actual_file}")
    message(SEND_ERROR "${name}: stdout differs from ${DATA_DIR}/${name}.stdout "
                       "(actual output in ${actual_file})")
    list(APPEND failed ${name})
  else()
    message(STATUS "${name}: stdout matches")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "examples with changed stdout: ${failed}")
endif()
