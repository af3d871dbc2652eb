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
# Usage: cmake -DTRAINER=<path> -DWORK_DIR=<dir> -P insight_smoke.cmake
if(NOT DEFINED TRAINER OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "insight_smoke: pass -DTRAINER=... -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${TRAINER}
          --workload cosmo --samples 16 --epochs 2 --dim 16 --batch 4
          --workers 2 --placement gpu
          --fault-policy retry-skip
          --inject-transient 0.2 --inject-delay 0.15 --inject-delay-ms 80
          --inject-seed 1234 --stage-deadline-ms 25
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
