# Bench-record smoke, driven end to end through a real bench binary: run it
# with --json-out and check the written document parses, carries the
# sciprep.perf.bench schema string, and that its first metric has the
# name/value/unit/kind fields every record promises. Covers bench_util's
# flag parsing and BenchReporter::write together.
#
# Usage: cmake -DBENCH=<path> -DWORK_DIR=<dir> -P bench_json_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
if(NOT DEFINED BENCH OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "bench_json_smoke: pass -DBENCH=... -DWORK_DIR=...")
endif()

set(schema "sciprep.perf.bench.v2")
file(MAKE_DIRECTORY ${WORK_DIR})
set(record ${WORK_DIR}/record.bench.json)
file(REMOVE ${record})

execute_process(
  COMMAND ${BENCH} --json-out ${record}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench run failed (rc=${rc})")
endif()
if(NOT EXISTS ${record})
  message(FATAL_ERROR "--json-out wrote no file at ${record}")
endif()

file(READ ${record} doc)
string(JSON got ERROR_VARIABLE err GET "${doc}" schema)
if(err)
  message(FATAL_ERROR "record does not parse or has no schema: ${err}")
endif()
if(NOT got STREQUAL schema)
  message(FATAL_ERROR "schema is '${got}', expected '${schema}'")
endif()

foreach(field name value unit kind)
  string(JSON got ERROR_VARIABLE err GET "${doc}" metrics 0 ${field})
  if(err)
    message(FATAL_ERROR "first metric lacks '${field}': ${err}")
  endif()
  if(got STREQUAL "")
    message(FATAL_ERROR "first metric has an empty '${field}'")
  endif()
endforeach()
