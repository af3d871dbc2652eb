# Kill-and-resume smoke, driven end to end through the trainer binary
# (ctest -L guard). Four stages:
#
#   1. An uninterrupted reference run records per-batch content digests.
#   2. The same run is repeated with periodic checkpointing and a simulated
#      crash (hard exit 42) mid-epoch, under fault injection so the recovery
#      paths are live when the process dies.
#   3. A third process resumes from the checkpoint and must deliver the
#      bit-identical remaining batches and end with the reference run's final
#      counters (--expect-digest + --validate enforce both).
#   4. A run under a different injection seed skips different samples, so
#      its batches and counters differ: --expect-digest must reject it (exit
#      1). Without this stage a checker that accepted everything
#      would pass stages 1-3.
#
# Usage: cmake -DTRAINER=<path> -DWORK_DIR=<dir> -P kill_resume_smoke.cmake
if(NOT DEFINED TRAINER OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "kill_resume_smoke: pass -DTRAINER=... -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(common_args
  --workload cosmo --samples 24 --epochs 2 --dim 16 --batch 4 --workers 2
  --placement cpu
  --inject-corrupt 0.05 --inject-truncate 0.05 --fault-policy skip)
set(seed_args --inject-seed 77)

execute_process(
  COMMAND ${TRAINER} ${common_args} ${seed_args}
          --digest-out ${WORK_DIR}/full.digest --validate
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference run failed (rc=${rc})")
endif()

execute_process(
  COMMAND ${TRAINER} ${common_args} ${seed_args}
          --checkpoint-out ${WORK_DIR}/checkpoint.bin --checkpoint-every 2
          --kill-after-batches 7
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 42)
  message(FATAL_ERROR "killed run must exit 42, got rc=${rc}")
endif()

execute_process(
  COMMAND ${TRAINER} ${common_args} ${seed_args}
          --resume-from ${WORK_DIR}/checkpoint.bin
          --digest-out ${WORK_DIR}/resumed.digest
          --expect-digest ${WORK_DIR}/full.digest --validate
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed run failed the digest/validate check (rc=${rc})")
endif()

execute_process(
  COMMAND ${TRAINER} ${common_args} --inject-seed 78
          --expect-digest ${WORK_DIR}/full.digest
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "a run with different skips must fail the digest check with exit 1, got rc=${rc}")
endif()
