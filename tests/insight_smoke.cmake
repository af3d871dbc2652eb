# Insight smoke, driven end to end through the trainer binary
# (ctest -L insight). One run exercises the whole sciprep::insight surface at
# once: injected IO stalls (long enough to trip the armed stage deadline) and
# transient faults under the retry-skip policy, with the continuous exporter
# streaming JSONL + Prometheus, the critical-path analyzer writing the
# bottleneck report, and the flight recorder dumping incidents. The trainer's
# --validate mode then re-reads every artifact:
#
#   * the report parses, names io.read as the dominant stage, attributes
#     every pipeline.stage.* histogram, and its io.read busy-seconds agree
#     with the pipeline.stage.io_read_seconds histogram sum;
#   * every JSONL tick parses and at least one shows a non-zero retry delta;
#   * a deadline-expiry incident file exists, parses, embeds spans, and
#     carries this run's config fingerprint.
#
# The incident dir is cleared first so a stale fingerprint from an earlier
# run cannot satisfy the checks.
#
# A stalled read costs io.read the stage deadline (the watchdog cancels it
# there), so the deadline is sized from this build's own decode time: a
# fault-free calibration run of the same workload reports its decode
# seconds, and the deadline is at least half of them (25 ms at the least).
# Seed 1234 stalls about eight reads, so the stalls outweigh the decode some
# fourfold in any build — a sanitizer's slowdown of the decode included.
#
# Usage: cmake -DTRAINER=<path> -DWORK_DIR=<dir> -P insight_smoke.cmake
if(NOT DEFINED TRAINER OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "insight_smoke: pass -DTRAINER=... -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(workload --workload cosmo --samples 16 --epochs 2 --dim 16 --batch 4
             --workers 2 --placement gpu)
execute_process(
  COMMAND ${TRAINER} ${workload}
          --metrics-out ${WORK_DIR}/calibrate.json
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "insight smoke calibration run failed (rc=${rc})")
endif()
file(READ ${WORK_DIR}/calibrate.json calibrate)
string(JSON decode_seconds GET "${calibrate}"
       histograms pipeline.stage.decode_seconds sum)
# CMake arithmetic is integer-only: whole milliseconds from the decimal text
# (a sum small enough to print with an exponent counts as 0).
set(decode_ms 0)
if(decode_seconds MATCHES "^([0-9]+)(\\.([0-9]*))?$")
  set(whole "${CMAKE_MATCH_1}")
  string(SUBSTRING "${CMAKE_MATCH_3}000" 0 3 frac)
  string(REGEX REPLACE "^0+([0-9])" "\\1" frac "${frac}")
  math(EXPR decode_ms "${whole} * 1000 + ${frac}")
endif()
math(EXPR deadline_ms "${decode_ms} / 2")
if(deadline_ms LESS 25)
  set(deadline_ms 25)
endif()
math(EXPR delay_ms "${deadline_ms} * 16 / 5")  # 80 ms over a 25 ms deadline
message(STATUS "insight_smoke: calibration decode ${decode_ms} ms -> "
               "stage deadline ${deadline_ms} ms, injected stall ${delay_ms} ms")

execute_process(
  COMMAND ${TRAINER} ${workload}
          --fault-policy retry-skip
          --inject-transient 0.2 --inject-delay 0.15
          --inject-delay-ms ${delay_ms}
          --inject-seed 1234 --stage-deadline-ms ${deadline_ms}
          --trace-out ${WORK_DIR}/trace.json
          --metrics-out ${WORK_DIR}/metrics.json
          --metrics-interval-ms 50
          --metrics-jsonl ${WORK_DIR}/series.jsonl
          --metrics-prom ${WORK_DIR}/metrics.prom
          --report-out ${WORK_DIR}/report.json
          --flightrec-dir ${WORK_DIR}/incidents
          --validate
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "insight smoke run failed validation (rc=${rc})")
endif()
