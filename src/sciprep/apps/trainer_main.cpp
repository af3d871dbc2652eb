// trainer — end-to-end training driver with observability export.
//
// Runs the full §VI integration (encoded dataset -> DataPipeline -> model)
// like examples/cosmoflow_train, but with command-line control over the
// workload and decode placement, and with sciprep::obs wired up:
//
//   trainer --workload cosmo --samples 24 --epochs 2 --placement gpu
//           --trace-out trace.json --metrics-out metrics.json
//
// --trace-out enables the global tracer and writes the run's span timeline
// as Chrome/Perfetto trace_event JSON (open in https://ui.perfetto.dev).
// --metrics-out dumps the global metrics registry (per-stage latency
// histograms with p50/p90/p99, byte counters, pool telemetry) as JSON; a
// human-readable metrics table is always printed at the end of the run.
// --validate re-reads the emitted files and checks them: both must be valid
// JSON, the trace must contain the expected pipeline/sim span names, the
// metrics dump must contain the per-stage histograms, and the pipeline's
// PipelineStats snapshot must agree with the registry. Exits nonzero on any
// violation (this backs the obs_trace_smoke ctest).
//
// Checkpoint & resume (sciprep::guard, DESIGN.md §9):
//   --checkpoint-out FILE [--checkpoint-every N] writes a crash-consistent
//   progress snapshot every N delivered batches; --resume-from FILE restarts
//   a killed run at its last checkpoint and delivers the bit-identical
//   remaining batch sequence. --digest-out records per-batch content CRCs
//   (plus a final-counter footer); --expect-digest cross-checks a resumed
//   run's digests against an uninterrupted run's file, which is how the
//   kill_resume_smoke ctest proves the resume property end to end.
//   --kill-after-batches N simulates the crash (hard exit 42 after the Nth
//   delivered batch); --stage-deadline-ms arms the pipeline watchdog so
//   injected stalls (--inject-delay/--inject-delay-ms) trip deadlines and
//   flow through the fault policy like any other transient.
//
// Insight (sciprep::insight, DESIGN.md §10):
//   --metrics-jsonl FILE [--metrics-interval-ms N] streams delta-aware
//   fleet.v1 metrics ticks (totals + deltas) to a JSONL time-series while
//   the run is live; --metrics-prom FILE additionally maintains a
//   Prometheus-style text file. --report-out FILE runs the critical-path
//   analyzer after the epoch loop and writes a ranked BottleneckReport (the
//   human table is printed too). --flightrec-dir DIR attaches the flight
//   recorder: every recovery/guard event dumps a rate-limited incident file
//   with the last spans, a metrics snapshot, the recovery-decision log, and
//   the pipeline's config fingerprint. --validate extends to these files.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sciprep/apps/models.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/log.hpp"
#include "sciprep/common/stats.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/common/threadpool.hpp"
#include "sciprep/guard/guard.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/dnn/loss.hpp"
#include "sciprep/dnn/optimizer.hpp"
#include "sciprep/fault/fault.hpp"
#include "sciprep/flow/fleet.hpp"
#include "sciprep/flow/merge.hpp"
#include "sciprep/insight/insight.hpp"
#include "sciprep/obs/obs.hpp"
#include "sciprep/obs/resource.hpp"
#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/serve/service.hpp"
#include "sciprep/shard/coordinator.hpp"
#include "sciprep/wire/client.hpp"
#include "sciprep/wire/server.hpp"

namespace {

using namespace sciprep;

struct TrainerArgs {
  std::string workload = "cosmo";   // cosmo | cam
  int samples = 24;
  int epochs = 2;
  int dim = 16;                     // cosmo volume edge / cam image edge
  int batch = 4;
  std::size_t workers = 2;
  std::string placement = "gpu";    // cpu | gpu
  std::string trace_out;
  std::string metrics_out;
  bool validate = false;
  // Fault injection + recovery (see src/sciprep/fault/).
  double inject_transient = 0;      // P(transient read fault) per sample read
  double inject_corrupt = 0;        // P(record corrupt at rest) per sample
  double inject_truncate = 0;       // P(record truncated at rest) per sample
  double inject_delay = 0;          // P(stalled read) per sample read
  double inject_delay_ms = 50;      // stall length when a delay fires
  std::uint64_t inject_seed = 1234;
  std::string fault_policy = "fail";  // fail | skip | retry-skip
  std::uint64_t fault_budget = 1u << 20;
  // Guard: checkpoint/resume + watchdog deadlines (see src/sciprep/guard/).
  std::string checkpoint_out;       // snapshot file, written atomically
  std::uint64_t checkpoint_every = 32;  // delivered batches per checkpoint
  std::string resume_from;          // snapshot file to resume from
  double stage_deadline_ms = 0;     // decode/gunzip/io.read deadline (0 = off)
  std::string digest_out;           // per-batch content CRC log
  std::string expect_digest;        // digest file to cross-check against
  std::uint64_t kill_after_batches = 0;  // simulate a crash (exit 42)
  // Insight: continuous export, bottleneck report, flight recorder.
  double metrics_interval_ms = 100;  // exporter sampling interval
  bool resource_sampling = true;     // proc.* gauges on the exporter cadence
  std::string metrics_jsonl;         // JSONL time-series ("" = off)
  std::string metrics_prom;          // Prometheus text file ("" = off)
  std::string report_out;            // BottleneckReport JSON ("" = off)
  std::string flightrec_dir;         // incident files directory ("" = off)
  // Shard: simulated multi-rank run with elastic recovery (sciprep::shard).
  int ranks = 0;                     // 0 = unsharded; N >= 1 = shard mode
  int kill_rank = -1;                // rank to kill mid-run (-1 = none)
  std::uint64_t kill_at_batch = 8;   // globally delivered batches before kill
  bool resharding = true;            // elastic re-shard vs abort on rank loss
  bool staged = true;                // per-rank staged dataset placement
  double heartbeat_ms = 250;         // per-rank heartbeat deadline
  std::string checkpoint_dir;        // coordinated rank-<r>.ckpt directory
  // Serve: resident multi-tenant data service (sciprep::serve).
  bool serve = false;                // serve mode: N tenants on one service
  int tenants = 4;                   // concurrent tenant sessions
  int faulty_tenant = -1;            // tenant given the injector + policy
  int kill_tenant = -1;              // tenant whose consumer dies mid-epoch
  bool overload = false;             // shrink the byte budget below demand
  std::uint64_t serve_cache_mb = 64; // shared decode cache size (0 = off)
  double lease_ms = 200;             // session lease deadline
  // Wire: cross-process serving over AF_UNIX sockets (sciprep::wire).
  std::string serve_socket;          // server mode: listen on this path
  std::string connect;               // client mode: attach to this path
  std::string tenant_name;           // client mode: tenant to attach as
  bool expect_resumed = false;       // client: assert this process resumed
  double inject_wire_corrupt = 0;    // server: P(outgoing frame corrupted)
  double inject_wire_drop = 0;       // server: P(connection severed mid-reply)
  // Flow: cross-process tracing + fleet federation (sciprep::flow).
  bool trace_propagate = false;      // client: trace context on every NEXT
  std::string flow_merge_out;        // client: merged two-process trace file
  std::string fleet_out;             // client: fleet.v1 JSONL of server deltas
  double throttle_wire_ms = 0;       // server: per-reply send throttle (drill)

  [[nodiscard]] bool sharded() const { return ranks > 0; }
  [[nodiscard]] bool wire_server() const { return !serve_socket.empty(); }
  [[nodiscard]] bool wire_client() const { return !connect.empty(); }

  [[nodiscard]] bool injecting() const {
    return inject_transient > 0 || inject_corrupt > 0 || inject_truncate > 0 ||
           inject_delay > 0;
  }
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload cosmo|cam] [--samples N] [--epochs N]\n"
      "          [--dim N] [--batch N] [--workers N] [--placement cpu|gpu]\n"
      "          [--trace-out FILE] [--metrics-out FILE] [--validate]\n"
      "          [--inject-transient P] [--inject-corrupt P]\n"
      "          [--inject-truncate P] [--inject-delay P]\n"
      "          [--inject-delay-ms MS] [--inject-seed N]\n"
      "          [--fault-policy fail|skip|retry-skip] [--fault-budget N]\n"
      "          [--checkpoint-out FILE] [--checkpoint-every N]\n"
      "          [--resume-from FILE] [--stage-deadline-ms MS]\n"
      "          [--digest-out FILE] [--expect-digest FILE]\n"
      "          [--kill-after-batches N]\n"
      "          [--metrics-interval-ms N] [--metrics-jsonl FILE]\n"
      "          [--metrics-prom FILE] [--report-out FILE]\n"
      "          [--flightrec-dir DIR] [--no-resource-sampling]\n"
      "          [--ranks N] [--kill-rank R] [--kill-at-batch N]\n"
      "          [--no-resharding] [--unstaged] [--heartbeat-ms MS]\n"
      "          [--checkpoint-dir DIR]\n"
      "          [--serve] [--tenants N] [--faulty-tenant T]\n"
      "          [--kill-tenant T] [--overload] [--serve-cache-mb N]\n"
      "          [--lease-ms MS]\n"
      "          [--serve-socket PATH] [--connect PATH] [--tenant-name T]\n"
      "          [--resumed] [--inject-wire-corrupt P]\n"
      "          [--inject-wire-drop P]\n"
      "          [--trace-propagate] [--flow-merge FILE] [--fleet-out FILE]\n"
      "          [--throttle-wire-ms MS]\n",
      argv0);
  std::exit(2);
}

TrainerArgs parse_args(int argc, char** argv) {
  TrainerArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--samples") {
      args.samples = std::atoi(value());
    } else if (a == "--epochs") {
      args.epochs = std::atoi(value());
    } else if (a == "--dim") {
      args.dim = std::atoi(value());
    } else if (a == "--batch") {
      args.batch = std::atoi(value());
    } else if (a == "--workers") {
      args.workers = static_cast<std::size_t>(std::atoi(value()));
    } else if (a == "--placement") {
      args.placement = value();
    } else if (a == "--trace-out") {
      args.trace_out = value();
    } else if (a == "--metrics-out") {
      args.metrics_out = value();
    } else if (a == "--validate") {
      args.validate = true;
    } else if (a == "--inject-transient") {
      args.inject_transient = std::atof(value());
    } else if (a == "--inject-corrupt") {
      args.inject_corrupt = std::atof(value());
    } else if (a == "--inject-truncate") {
      args.inject_truncate = std::atof(value());
    } else if (a == "--inject-delay") {
      args.inject_delay = std::atof(value());
    } else if (a == "--inject-delay-ms") {
      args.inject_delay_ms = std::atof(value());
    } else if (a == "--inject-seed") {
      args.inject_seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (a == "--fault-policy") {
      args.fault_policy = value();
    } else if (a == "--fault-budget") {
      args.fault_budget = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (a == "--checkpoint-out") {
      args.checkpoint_out = value();
    } else if (a == "--checkpoint-every") {
      args.checkpoint_every = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (a == "--resume-from") {
      args.resume_from = value();
    } else if (a == "--stage-deadline-ms") {
      args.stage_deadline_ms = std::atof(value());
    } else if (a == "--digest-out") {
      args.digest_out = value();
    } else if (a == "--expect-digest") {
      args.expect_digest = value();
    } else if (a == "--kill-after-batches") {
      args.kill_after_batches = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (a == "--metrics-interval-ms") {
      args.metrics_interval_ms = std::atof(value());
    } else if (a == "--metrics-jsonl") {
      args.metrics_jsonl = value();
    } else if (a == "--metrics-prom") {
      args.metrics_prom = value();
    } else if (a == "--report-out") {
      args.report_out = value();
    } else if (a == "--flightrec-dir") {
      args.flightrec_dir = value();
    } else if (a == "--no-resource-sampling") {
      args.resource_sampling = false;
    } else if (a == "--ranks") {
      args.ranks = std::atoi(value());
    } else if (a == "--kill-rank") {
      args.kill_rank = std::atoi(value());
    } else if (a == "--kill-at-batch") {
      args.kill_at_batch = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (a == "--no-resharding") {
      args.resharding = false;
    } else if (a == "--unstaged") {
      args.staged = false;
    } else if (a == "--heartbeat-ms") {
      args.heartbeat_ms = std::atof(value());
    } else if (a == "--checkpoint-dir") {
      args.checkpoint_dir = value();
    } else if (a == "--serve") {
      args.serve = true;
    } else if (a == "--tenants") {
      args.tenants = std::atoi(value());
    } else if (a == "--faulty-tenant") {
      args.faulty_tenant = std::atoi(value());
    } else if (a == "--kill-tenant") {
      args.kill_tenant = std::atoi(value());
    } else if (a == "--overload") {
      args.overload = true;
    } else if (a == "--serve-cache-mb") {
      args.serve_cache_mb = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (a == "--lease-ms") {
      args.lease_ms = std::atof(value());
    } else if (a == "--serve-socket") {
      args.serve_socket = value();
    } else if (a == "--connect") {
      args.connect = value();
    } else if (a == "--tenant-name") {
      args.tenant_name = value();
    } else if (a == "--resumed") {
      args.expect_resumed = true;
    } else if (a == "--inject-wire-corrupt") {
      args.inject_wire_corrupt = std::atof(value());
    } else if (a == "--inject-wire-drop") {
      args.inject_wire_drop = std::atof(value());
    } else if (a == "--trace-propagate") {
      args.trace_propagate = true;
    } else if (a == "--flow-merge") {
      args.flow_merge_out = value();
    } else if (a == "--fleet-out") {
      args.fleet_out = value();
    } else if (a == "--throttle-wire-ms") {
      args.throttle_wire_ms = std::atof(value());
    } else {
      std::fprintf(stderr, "trainer: unknown flag '%s'\n", argv[i]);
      usage(argv[0]);
    }
  }
  if (args.workload != "cosmo" && args.workload != "cam") usage(argv[0]);
  if (args.placement != "cpu" && args.placement != "gpu") usage(argv[0]);
  if (args.samples < 1 || args.epochs < 1 || args.dim < 4 || args.batch < 1) {
    usage(argv[0]);
  }
  if (args.fault_policy != "fail" && args.fault_policy != "skip" &&
      args.fault_policy != "retry-skip") {
    usage(argv[0]);
  }
  if (args.ranks < 0 || args.kill_rank >= args.ranks) usage(argv[0]);
  if (args.serve) {
    if (args.sharded()) usage(argv[0]);  // serve and shard modes are exclusive
    if (args.tenants < 1 || args.faulty_tenant >= args.tenants ||
        args.kill_tenant >= args.tenants || args.lease_ms <= 0) {
      usage(argv[0]);
    }
  }
  if (args.wire_server()) {
    // The wire server is the serve drill behind a socket: same tenant knobs,
    // but consumers are separate processes, so in-process consumer drills
    // (--kill-tenant) don't apply.
    if (args.wire_client() || args.serve || args.sharded() ||
        args.kill_tenant >= 0 || args.tenants < 1 || args.lease_ms <= 0) {
      usage(argv[0]);
    }
  }
  if (args.wire_client()) {
    if (args.serve || args.sharded() || args.tenant_name.empty()) {
      usage(argv[0]);
    }
  }
  // Flow flags bind to a specific arm: propagation (and everything riding on
  // it) is a client feature, the send throttle a server drill.
  if (args.trace_propagate && !args.wire_client()) usage(argv[0]);
  if ((!args.flow_merge_out.empty() || !args.fleet_out.empty()) &&
      !args.trace_propagate) {
    usage(argv[0]);
  }
  if (args.throttle_wire_ms > 0 && !args.wire_server()) usage(argv[0]);
  return args;
}

fault::FaultPolicy make_fault_policy(const TrainerArgs& args) {
  fault::FaultPolicy policy;  // default: kFail everywhere
  if (args.fault_policy == "skip") {
    policy.on_transient = fault::Action::kSkipSample;
    policy.on_corrupt = fault::Action::kSkipSample;
  } else if (args.fault_policy == "retry-skip") {
    policy.on_transient = fault::Action::kRetry;
    policy.retry = {.max_attempts = 3,
                    .backoff_seconds = 1e-4,
                    .backoff_multiplier = 2};
    policy.on_retry_exhausted = fault::Action::kSkipSample;
    policy.on_corrupt = fault::Action::kSkipSample;
  }
  policy.error_budget = args.fault_budget;
  return policy;
}

/// Configure the trainer's injector: transient faults on the sample-read
/// site, at-rest corruption on whichever record-format site the dataset
/// uses (all three are armed; the pipeline consults the one matching its
/// storage format).
void configure_injector(fault::Injector& injector, const TrainerArgs& args) {
  injector.configure(fault::Site::kIoRead,
                     {.transient_probability = args.inject_transient,
                      .delay_probability = args.inject_delay,
                      .delay_seconds = args.inject_delay_ms / 1e3});
  const fault::SiteConfig corrupt{.corrupt_probability = args.inject_corrupt,
                                  .truncate_probability = args.inject_truncate};
  injector.configure(fault::Site::kTfrecordPayloadCrc, corrupt);
  injector.configure(fault::Site::kH5ChunkCrc, corrupt);
  injector.configure(fault::Site::kCodecDecode, corrupt);
  // Wire transport drills (server side): bit-flip outgoing frames and sever
  // connections mid-reply. Both must be absorbed by the client's CRC check +
  // reconnect/ack protocol without perturbing the delivered stream.
  injector.configure(fault::Site::kWireFrameCrc,
                     {.corrupt_probability = args.inject_wire_corrupt});
  injector.configure(fault::Site::kWireConnDrop,
                     {.transient_probability = args.inject_wire_drop});
}

/// Arm the pipeline's guard features from the command line: one deadline for
/// every decode-path stage (the end-to-end prefetch wait gets 8x — it covers
/// a whole batch of samples, not one).
void apply_guard_config(pipeline::PipelineConfig& pcfg,
                        const TrainerArgs& args) {
  if (args.stage_deadline_ms > 0) {
    const double s = args.stage_deadline_ms / 1e3;
    pcfg.deadlines.decode_seconds = s;
    pcfg.deadlines.gunzip_seconds = s;
    pcfg.deadlines.io_read_seconds = s;
    pcfg.deadlines.prefetch_wait_seconds = 8 * s;
  }
}

/// Per-run guard driver: resume, per-batch content digests, periodic
/// checkpoints, and the simulated crash. One instance spans the epoch loop of
/// either workload arm.
struct RunGuard {
  explicit RunGuard(const TrainerArgs& args) : args_(args) {
    if (!args.checkpoint_out.empty()) {
      checkpointer_.emplace(args.checkpoint_out, args.checkpoint_every,
                            &obs::MetricsRegistry::global());
    }
  }

  /// Restore `pipe` from --resume-from (if given). Returns the epoch the run
  /// starts at; the caller must NOT start_epoch() that first epoch — resume()
  /// has already positioned the pipeline inside it.
  int begin(pipeline::DataPipeline& pipe) {
    if (args_.resume_from.empty()) return 0;
    const guard::Snapshot snap = guard::read_snapshot(args_.resume_from);
    pipe.resume(snap);
    resumed_ = true;
    std::printf("resume: %s -> epoch %llu, %llu samples into the order, "
                "batch %llu\n",
                args_.resume_from.c_str(),
                static_cast<unsigned long long>(snap.epoch),
                static_cast<unsigned long long>(snap.cursor),
                static_cast<unsigned long long>(snap.batch_index));
    return static_cast<int>(snap.epoch);
  }

  [[nodiscard]] bool skip_epoch_reset(int epoch, int first_epoch) const {
    return resumed_ && epoch == first_epoch;
  }

  /// Content CRC of a delivered batch: every tensor's shape, values, and
  /// labels, chained. Two runs produce the same digest iff their delivered
  /// batches are bit-identical (augmentations included).
  static std::uint32_t batch_crc(const pipeline::Batch& batch) {
    std::uint32_t crc = 0;
    for (const auto& t : batch.samples) {
      crc = crc32c(as_bytes(t.shape), crc);
      crc = crc32c(as_bytes(t.values), crc);
      crc = crc32c(as_bytes(t.float_labels), crc);
      crc = crc32c(as_bytes(t.byte_labels), crc);
    }
    return crc;
  }

  /// Called once per delivered batch, before the train step: record the
  /// digest, checkpoint if the cadence says so, and crash if asked to.
  void on_batch(pipeline::DataPipeline& pipe, const pipeline::Batch& batch) {
    ++delivered_;
    digest_lines_.push_back(fmt("B {} {} {:08x}", batch.epoch,
                                batch.index_in_epoch, batch_crc(batch)));
    if (checkpointer_ && checkpointer_->due(delivered_)) {
      checkpointer_->write(pipe.snapshot());
    }
    if (args_.kill_after_batches > 0 &&
        delivered_ >= args_.kill_after_batches) {
      // Simulated crash: no flushing, no destructors, no atexit — the next
      // run has only the (atomically written) checkpoint to go on.
      std::printf("kill: simulating crash after batch %llu\n",
                  static_cast<unsigned long long>(delivered_));
      std::fflush(stdout);
      std::_Exit(42);
    }
  }

  /// Write --digest-out and cross-check --expect-digest. Returns the number
  /// of violations (0 = clean).
  int finish(const pipeline::PipelineStats& stats,
             const std::vector<std::size_t>& quarantine) {
    const std::uint32_t qcrc = crc32c(as_bytes(quarantine));
    // The footer excludes the live retry counter by contract: retries are
    // spent wall clock, and a resumed run legitimately repeats some.
    const std::string footer =
        fmt("T samples {} batches {} bytes {} skipped {} fallbacks {} "
            "qcrc {:08x}",
            stats.samples, stats.batches, stats.bytes_at_rest,
            stats.samples_skipped, stats.fallbacks, qcrc);
    if (!args_.digest_out.empty()) {
      std::ofstream out(args_.digest_out, std::ios::trunc);
      if (!out) {
        throw IoError(fmt("trainer: cannot write '{}'", args_.digest_out));
      }
      for (const std::string& line : digest_lines_) out << line << '\n';
      out << footer << '\n';
      std::printf("digest: %zu batches -> %s\n", digest_lines_.size(),
                  args_.digest_out.c_str());
    }
    if (args_.expect_digest.empty()) return 0;

    int failures = 0;
    auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "digest: FAIL %s\n", what.c_str());
      ++failures;
    };
    std::ifstream in(args_.expect_digest);
    if (!in) {
      fail(fmt("cannot read expected digest '{}'", args_.expect_digest));
      return failures;
    }
    // Index the uninterrupted run's lines by (epoch, batch) key. A resumed
    // run produces a suffix of them: every line it produced must match the
    // full run's line exactly, and the final counters must agree.
    std::vector<std::string> expected_lines;
    std::string expected_footer;
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("B ", 0) == 0) expected_lines.push_back(line);
      if (line.rfind("T ", 0) == 0) expected_footer = line;
    }
    auto key_of = [](const std::string& line) {
      return line.substr(0, line.rfind(' '));  // "B <epoch> <index>"
    };
    std::size_t matched = 0;
    for (const std::string& line : digest_lines_) {
      bool found = false;
      for (const std::string& exp : expected_lines) {
        if (key_of(exp) != key_of(line)) continue;
        found = true;
        if (exp != line) {
          fail(fmt("batch digest mismatch: produced '{}', expected '{}'",
                   line, exp));
        } else {
          ++matched;
        }
        break;
      }
      if (!found) fail(fmt("unexpected batch '{}'", key_of(line)));
    }
    if (footer != expected_footer) {
      fail(fmt("final counters differ: produced '{}', expected '{}'", footer,
               expected_footer));
    }
    if (failures == 0) {
      std::printf("digest: OK — %zu batches bit-identical, counters agree\n",
                  matched);
    }
    return failures;
  }

 private:
  const TrainerArgs& args_;
  std::optional<guard::Checkpointer> checkpointer_;
  std::vector<std::string> digest_lines_;
  std::uint64_t delivered_ = 0;
  bool resumed_ = false;
};

/// Run the CosmoFlow arm: encoded dataset -> pipeline (with one augmentation
/// op so the pipeline.ops stage is exercised) -> tiny 3D-conv model.
void run_cosmo(const TrainerArgs& args, sim::SimGpu& gpu,
               fault::Injector& injector, RunGuard& rg,
               insight::FlightRecorder* recorder,
               pipeline::PipelineStats& stats_out,
               std::vector<std::size_t>& quarantine_out,
               std::uint64_t& fingerprint_out) {
  data::CosmoGenConfig gen_cfg;
  gen_cfg.dim = args.dim;
  gen_cfg.seed = 2022;
  const data::CosmoGenerator generator(gen_cfg);
  const codec::CosmoCodec codec;
  const auto dataset = pipeline::InMemoryDataset::make_cosmo(
      generator, static_cast<std::size_t>(args.samples),
      pipeline::StorageFormat::kEncoded, &codec);
  std::printf("dataset: %zu encoded cosmo samples, %s at rest\n",
              dataset.size(), format_bytes(dataset.total_bytes()).c_str());

  pipeline::PipelineConfig pcfg;
  pcfg.batch_size = args.batch;
  pcfg.worker_threads = args.workers;
  pcfg.seed = 7;
  pcfg.decode_placement = args.placement == "gpu" ? codec::Placement::kGpu
                                                  : codec::Placement::kCpu;
  pcfg.ops.push_back(std::make_shared<pipeline::ScaleOp>(1.0F));
  pcfg.metrics = &obs::MetricsRegistry::global();
  pcfg.fault_policy = make_fault_policy(args);
  pcfg.injector = args.injecting() ? &injector : nullptr;
  apply_guard_config(pcfg, args);
  if (recorder != nullptr) pcfg.on_recovery_event = recorder->listener();
  pipeline::DataPipeline pipe(dataset, codec, pcfg,
                              pcfg.decode_placement == codec::Placement::kGpu
                                  ? &gpu
                                  : nullptr);
  fingerprint_out = pipe.config_fingerprint();
  if (recorder != nullptr) recorder->set_config_fingerprint(fingerprint_out);

  Rng rng(11);
  auto model = apps::build_cosmoflow_model(args.dim, rng);
  dnn::Sgd optimizer(*model, {.learning_rate = 0.02F, .momentum = 0.9F,
                              .weight_decay = 0.0F, .warmup_steps = 4,
                              .decay_every = 0});

  const int first_epoch = rg.begin(pipe);
  for (int epoch = first_epoch; epoch < args.epochs; ++epoch) {
    if (!rg.skip_epoch_reset(epoch, first_epoch)) {
      pipe.start_epoch(static_cast<std::uint64_t>(epoch));
    }
    double epoch_loss = 0;
    std::size_t steps = 0;
    pipeline::Batch batch;
    while (pipe.next_batch(batch)) {
      rg.on_batch(pipe, batch);
      double batch_loss = 0;
      for (const auto& tensor : batch.samples) {
        const dnn::Tensor input = apps::cosmo_input_from_fp16(tensor);
        const dnn::Tensor pred = model->forward(input);
        const auto loss = dnn::mse_loss(pred, tensor.float_labels);
        model->backward(loss.grad);
        batch_loss += loss.loss;
      }
      optimizer.step(static_cast<float>(batch.size()));
      epoch_loss += batch_loss / batch.size();
      ++steps;
    }
    std::printf("epoch %d: mean loss %.5f (%zu steps)\n", epoch,
                steps > 0 ? epoch_loss / static_cast<double>(steps) : 0.0,
                steps);
  }
  stats_out = pipe.stats();
  quarantine_out = pipe.quarantine();
}

/// Run the DeepCAM arm: decode-only batch pump (the paper's DeepCAM
/// evaluation is loader-bound; the model step adds nothing to the
/// observability surface being exercised here).
void run_cam(const TrainerArgs& args, sim::SimGpu& gpu,
             fault::Injector& injector, RunGuard& rg,
             insight::FlightRecorder* recorder,
             pipeline::PipelineStats& stats_out,
             std::vector<std::size_t>& quarantine_out,
             std::uint64_t& fingerprint_out) {
  data::CamGenConfig gen_cfg;
  gen_cfg.height = args.dim;
  gen_cfg.width = args.dim;
  gen_cfg.channels = 4;
  gen_cfg.seed = 2022;
  const data::CamGenerator generator(gen_cfg);
  const codec::CamCodec codec;
  const auto dataset = pipeline::InMemoryDataset::make_cam(
      generator, static_cast<std::size_t>(args.samples),
      pipeline::StorageFormat::kEncoded, &codec);
  std::printf("dataset: %zu encoded cam samples, %s at rest\n", dataset.size(),
              format_bytes(dataset.total_bytes()).c_str());

  pipeline::PipelineConfig pcfg;
  pcfg.batch_size = args.batch;
  pcfg.worker_threads = args.workers;
  pcfg.seed = 7;
  pcfg.decode_placement = args.placement == "gpu" ? codec::Placement::kGpu
                                                  : codec::Placement::kCpu;
  pcfg.ops.push_back(std::make_shared<pipeline::RandomFlipX>());
  pcfg.metrics = &obs::MetricsRegistry::global();
  pcfg.fault_policy = make_fault_policy(args);
  pcfg.injector = args.injecting() ? &injector : nullptr;
  apply_guard_config(pcfg, args);
  if (recorder != nullptr) pcfg.on_recovery_event = recorder->listener();
  pipeline::DataPipeline pipe(dataset, codec, pcfg,
                              pcfg.decode_placement == codec::Placement::kGpu
                                  ? &gpu
                                  : nullptr);
  fingerprint_out = pipe.config_fingerprint();
  if (recorder != nullptr) recorder->set_config_fingerprint(fingerprint_out);

  const int first_epoch = rg.begin(pipe);
  for (int epoch = first_epoch; epoch < args.epochs; ++epoch) {
    if (!rg.skip_epoch_reset(epoch, first_epoch)) {
      pipe.start_epoch(static_cast<std::uint64_t>(epoch));
    }
    pipeline::Batch batch;
    std::size_t steps = 0;
    while (pipe.next_batch(batch)) {
      rg.on_batch(pipe, batch);
      ++steps;
    }
    std::printf("epoch %d: %zu batches decoded\n", epoch, steps);
  }
  stats_out = pipe.stats();
  quarantine_out = pipe.quarantine();
}

/// Shard-mode run summary, handed to the digest writer and validator.
struct ShardRunResult {
  shard::ShardStats stats;
  std::uint32_t stream_digest = 0;
  std::vector<std::string> digest_lines;  // "S <epoch> <pos> <crc>"
  std::uint64_t delivered_batches = 0;
  bool killed = false;
};

/// Run the sharded arm (sciprep::shard, DESIGN.md §12): N simulated ranks
/// deliver a deterministic global shuffle; --kill-rank injects a mid-epoch
/// rank death whose shard is elastically redistributed. The merged stream is
/// digest-verified — the "S" lines are emitted from the coordinator's
/// position-keyed digest at the END of the run, so a killed-and-recovered
/// run writes the byte-identical digest file a healthy run does.
void run_shard(const TrainerArgs& args, fault::Injector& injector,
               insight::FlightRecorder* recorder, ShardRunResult& out) {
  std::unique_ptr<codec::SampleCodec> codec;
  std::unique_ptr<pipeline::InMemoryDataset> dataset;
  pipeline::PipelineConfig pcfg;
  if (args.workload == "cosmo") {
    data::CosmoGenConfig gen_cfg;
    gen_cfg.dim = args.dim;
    gen_cfg.seed = 2022;
    const data::CosmoGenerator generator(gen_cfg);
    codec = std::make_unique<codec::CosmoCodec>();
    dataset = std::make_unique<pipeline::InMemoryDataset>(
        pipeline::InMemoryDataset::make_cosmo(
            generator, static_cast<std::size_t>(args.samples),
            pipeline::StorageFormat::kEncoded, codec.get()));
    pcfg.ops.push_back(std::make_shared<pipeline::ScaleOp>(1.0F));
  } else {
    data::CamGenConfig gen_cfg;
    gen_cfg.height = args.dim;
    gen_cfg.width = args.dim;
    gen_cfg.channels = 4;
    gen_cfg.seed = 2022;
    const data::CamGenerator generator(gen_cfg);
    codec = std::make_unique<codec::CamCodec>();
    dataset = std::make_unique<pipeline::InMemoryDataset>(
        pipeline::InMemoryDataset::make_cam(
            generator, static_cast<std::size_t>(args.samples),
            pipeline::StorageFormat::kEncoded, codec.get()));
    pcfg.ops.push_back(std::make_shared<pipeline::RandomFlipX>());
  }
  std::printf("dataset: %zu encoded %s samples, %s at rest, %d rank(s)\n",
              dataset->size(), args.workload.c_str(),
              format_bytes(dataset->total_bytes()).c_str(), args.ranks);

  pcfg.batch_size = args.batch;
  pcfg.worker_threads = args.workers;
  pcfg.seed = 7;
  pcfg.decode_placement = args.placement == "gpu" ? codec::Placement::kGpu
                                                  : codec::Placement::kCpu;
  pcfg.fault_policy = make_fault_policy(args);
  pcfg.injector = args.injecting() ? &injector : nullptr;
  apply_guard_config(pcfg, args);

  shard::ShardConfig scfg;
  scfg.world = args.ranks;
  scfg.pipeline = pcfg;
  scfg.staged = args.staged;
  scfg.elastic = args.resharding;
  scfg.heartbeat_deadline_seconds = args.heartbeat_ms / 1e3;
  scfg.checkpoint_every_batches = args.checkpoint_every;
  scfg.checkpoint_dir = args.checkpoint_dir;
  scfg.verify_stream = true;  // shard mode exists to prove the stream digest
  scfg.metrics = &obs::MetricsRegistry::global();
  if (pcfg.decode_placement == codec::Placement::kGpu) {
    scfg.gpu_factory = [](int /*rank*/) {
      return std::make_unique<sim::SimGpu>(
          sim::SimGpu::Config{.sm_count = 80, .warps_per_sm = 8});
    };
  }
  fault::RecoveryListener forward =
      recorder != nullptr ? recorder->listener() : fault::RecoveryListener{};
  scfg.on_event = [forward](const fault::RecoveryEvent& event) {
    if (event.kind == fault::EventKind::kRankLost ||
        event.kind == fault::EventKind::kReshard) {
      std::printf("shard: [%s] %s\n", event.scope.c_str(),
                  event.detail.c_str());
    }
    if (forward) forward(event);
  };

  shard::ShardCoordinator coordinator(*dataset, *codec, std::move(scfg));
  if (recorder != nullptr) {
    recorder->set_config_fingerprint(coordinator.config_fingerprint());
  }

  const bool kill_armed = args.kill_rank >= 0;
  for (int epoch = 0; epoch < args.epochs; ++epoch) {
    if (epoch > 0) coordinator.start_epoch(static_cast<std::uint64_t>(epoch));
    shard::ShardBatch sb;
    std::size_t steps = 0;
    while (coordinator.step(sb)) {
      ++steps;
      ++out.delivered_batches;
      if (kill_armed && !out.killed &&
          out.delivered_batches >= args.kill_at_batch) {
        std::printf("shard: killing rank %d after global batch %llu\n",
                    args.kill_rank,
                    static_cast<unsigned long long>(out.delivered_batches));
        coordinator.kill_rank(args.kill_rank);
        out.killed = true;
      }
    }
    std::printf("epoch %d: %zu batches across %d live rank(s)\n", epoch,
                steps, coordinator.alive_count());
  }

  out.stats = coordinator.aggregate();
  out.stream_digest = coordinator.digest().stream_digest();
  for (int epoch = 0; epoch < args.epochs; ++epoch) {
    for (const auto& [position, crc] :
         coordinator.digest().entries(static_cast<std::uint64_t>(epoch))) {
      out.digest_lines.push_back(fmt("S {} {} {:08x}", epoch, position, crc));
    }
  }
}

/// Shard-mode digest file: "S" lines from the merged global stream plus a
/// footer restricted to rank-count-invariant counters (batch counts and
/// retries legitimately differ across worlds; delivered samples, bytes, and
/// skips may not). Cross-checking --expect-digest demands the exact same
/// position->crc set in both directions. Returns violations (0 = clean).
int finish_shard_digest(const TrainerArgs& args, const ShardRunResult& run) {
  const std::string footer =
      fmt("T samples {} bytes {} skipped {} stream {:08x}",
          run.stats.totals.samples, run.stats.totals.bytes_at_rest,
          run.stats.totals.samples_skipped, run.stream_digest);
  if (!args.digest_out.empty()) {
    std::ofstream out(args.digest_out, std::ios::trunc);
    if (!out) {
      throw IoError(fmt("trainer: cannot write '{}'", args.digest_out));
    }
    for (const std::string& line : run.digest_lines) out << line << '\n';
    out << footer << '\n';
    std::printf("digest: %zu positions -> %s\n", run.digest_lines.size(),
                args.digest_out.c_str());
  }
  if (args.expect_digest.empty()) return 0;

  int failures = 0;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "digest: FAIL %s\n", what.c_str());
    ++failures;
  };
  std::ifstream in(args.expect_digest);
  if (!in) {
    fail(fmt("cannot read expected digest '{}'", args.expect_digest));
    return failures;
  }
  std::vector<std::string> expected_lines;
  std::string expected_footer;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("S ", 0) == 0) expected_lines.push_back(line);
    if (line.rfind("T ", 0) == 0) expected_footer = line;
  }
  // Both files list (epoch, position) ascending, so bit-identical streams
  // compare as equal ordered sequences — any divergence names its line.
  if (expected_lines.size() != run.digest_lines.size()) {
    fail(fmt("stream length differs: produced {} positions, expected {}",
             run.digest_lines.size(), expected_lines.size()));
  }
  const std::size_t common =
      std::min(expected_lines.size(), run.digest_lines.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (run.digest_lines[i] != expected_lines[i]) {
      fail(fmt("stream diverged: produced '{}', expected '{}'",
               run.digest_lines[i], expected_lines[i]));
      break;  // one divergence names the spot; the rest is noise
    }
  }
  if (footer != expected_footer) {
    fail(fmt("final counters differ: produced '{}', expected '{}'", footer,
             expected_footer));
  }
  if (failures == 0) {
    std::printf("digest: OK — %zu global positions bit-identical, counters "
                "agree\n",
                run.digest_lines.size());
  }
  return failures;
}

/// Counts --validate violations, printing each one as it is found.
struct Checker {
  int failures = 0;
  void operator()(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "validate: FAIL %s\n", what.c_str());
    ++failures;
  }
};

/// --validate for shard mode: exact-once accounting across the world, the
/// digest covering every delivered sample, and the failure bookkeeping.
int validate_shard(const TrainerArgs& args, const ShardRunResult& run) {
  Checker check;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(args.samples) *
      static_cast<std::uint64_t>(args.epochs);
  check(run.stats.totals.samples + run.stats.totals.samples_skipped ==
            expected,
        fmt("samples {} + skipped {} == dataset size x epochs {} "
            "(exact-once across the world)",
            run.stats.totals.samples, run.stats.totals.samples_skipped,
            expected));
  check(run.digest_lines.size() == run.stats.totals.samples,
        fmt("digest covers every delivered sample exactly once ({} vs {})",
            run.digest_lines.size(), run.stats.totals.samples));
  check(run.stats.world == args.ranks,
        fmt("world size {} matches --ranks {}", run.stats.world, args.ranks));
  if (run.killed) {
    check(run.stats.ranks_lost == 1,
          fmt("exactly one rank lost ({} recorded)", run.stats.ranks_lost));
    check(run.stats.alive == args.ranks - 1,
          fmt("{} of {} ranks alive after the kill", run.stats.alive,
              args.ranks));
  } else {
    check(run.stats.ranks_lost == 0, "no rank losses in a healthy run");
    check(run.stats.alive == args.ranks, "every rank alive in a healthy run");
  }
  if (check.failures == 0) std::printf("validate(shard): OK\n");
  return check.failures;
}

/// One tenant's outcome in a serve-mode run.
struct ServeTenantResult {
  std::string name;
  int session = -1;  // -1 = admission rejected, never ran
  serve::Admission admission = serve::Admission::kRejected;
  serve::SessionState state = serve::SessionState::kClosed;
  bool faulty = false;
  bool killed = false;   // consumer death was simulated for this tenant
  bool evicted = false;
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  std::uint64_t skipped = 0;
  std::uint64_t deadline_expired = 0;  // tenant-registry watchdog expiries
  std::uint32_t stream = 0;            // GlobalStreamDigest::stream_digest()
  std::vector<std::string> digest_lines;  // "U <epoch> <pos> <crc>"
};

/// Serve-mode run summary, handed to the digest writer and validator.
struct ServeRunResult {
  std::vector<ServeTenantResult> tenants;
  // The drill's own admission bookkeeping, reconciled against the
  // serve.sessions_* counters under --validate.
  std::uint64_t expected_admitted = 0;
  std::uint64_t expected_degraded = 0;
  std::uint64_t expected_rejected = 0;
  std::uint64_t expected_evicted = 0;
  std::uint64_t expected_suspended = 0;
  std::uint64_t expected_reattached = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t committed_end = 0;  // committed bytes after every close
  bool shedding_end = false;
  std::size_t queue_end = 0;  // shared-pool backlog after every close
};

/// Everything a resident service needs to exist: the dataset, its codec, and
/// the DataService itself, built from the trainer flags. Shared between the
/// in-process serve drill and the wire server.
struct ServeContext {
  std::unique_ptr<codec::SampleCodec> codec;
  std::unique_ptr<pipeline::InMemoryDataset> dataset;
  std::uint64_t probe_bytes = 0;
  std::unique_ptr<serve::DataService> service;
};

ServeContext make_serve_context(const TrainerArgs& args,
                                insight::FlightRecorder* recorder) {
  ServeContext ctx;
  std::unique_ptr<codec::SampleCodec>& codec = ctx.codec;
  std::unique_ptr<pipeline::InMemoryDataset>& dataset = ctx.dataset;
  if (args.workload == "cosmo") {
    data::CosmoGenConfig gen_cfg;
    gen_cfg.dim = args.dim;
    gen_cfg.seed = 2022;
    const data::CosmoGenerator generator(gen_cfg);
    codec = std::make_unique<codec::CosmoCodec>();
    dataset = std::make_unique<pipeline::InMemoryDataset>(
        pipeline::InMemoryDataset::make_cosmo(
            generator, static_cast<std::size_t>(args.samples),
            pipeline::StorageFormat::kEncoded, codec.get()));
  } else {
    data::CamGenConfig gen_cfg;
    gen_cfg.height = args.dim;
    gen_cfg.width = args.dim;
    gen_cfg.channels = 4;
    gen_cfg.seed = 2022;
    const data::CamGenerator generator(gen_cfg);
    codec = std::make_unique<codec::CamCodec>();
    dataset = std::make_unique<pipeline::InMemoryDataset>(
        pipeline::InMemoryDataset::make_cam(
            generator, static_cast<std::size_t>(args.samples),
            pipeline::StorageFormat::kEncoded, codec.get()));
  }
  std::printf("dataset: %zu encoded %s samples, %s at rest, %d tenant(s)\n",
              dataset->size(), args.workload.c_str(),
              format_bytes(dataset->total_bytes()).c_str(), args.tenants);
  if (args.placement == "gpu") {
    std::printf("serve: forcing cpu decode (tenant pipelines share workers, "
                "not a SimGpu)\n");
  }

  // The overload budget is expressed in full-session charges, so probe the
  // decoded-sample footprint the same way the service will (see
  // DataService::probe_sample_bytes).
  std::uint64_t probe_bytes = 0;
  {
    fault::Injector none(1);
    pipeline::PipelineConfig probe;
    probe.batch_size = 1;
    probe.shuffle = false;
    probe.prefetch = false;
    probe.injector = &none;
    const pipeline::DataPipeline probe_pipe(*dataset, *codec, probe, nullptr);
    probe_bytes = serve::tensor_bytes(probe_pipe.decode_sample(0));
  }
  ctx.probe_bytes = probe_bytes;
  const std::uint64_t full_charge =
      static_cast<std::uint64_t>(args.batch) * probe_bytes * 2;

  serve::ServiceConfig scfg;
  scfg.verify_stream = true;  // the drill exists to prove per-tenant digests
  scfg.worker_threads = args.workers;
  scfg.cache.capacity_bytes = args.serve_cache_mb << 20;
  scfg.lease_deadline_seconds = args.lease_ms / 1e3;
  scfg.checkpoint_dir = args.checkpoint_dir;
  scfg.metrics = &obs::MetricsRegistry::global();
  scfg.limits.max_tenants = static_cast<std::size_t>(args.tenants);
  // Overload: budget for half the roster at full service — with the default
  // 0.75/0.5 watermarks a 4-tenant drill converges to 1 admitted, 2
  // degraded, 1 rejected, every run. Healthy: twice the aggregate demand.
  scfg.limits.max_inflight_bytes =
      args.overload
          ? std::max<std::uint64_t>(full_charge,
                                    full_charge * args.tenants / 2)
          : full_charge * static_cast<std::uint64_t>(args.tenants) * 2;
  fault::RecoveryListener forward =
      recorder != nullptr ? recorder->listener() : fault::RecoveryListener{};
  scfg.on_event = [forward](const fault::RecoveryEvent& event) {
    if (event.kind == fault::EventKind::kTenantLost ||
        event.kind == fault::EventKind::kTenantEvicted ||
        event.kind == fault::EventKind::kSessionShed) {
      std::printf("serve: [%s] %s\n", event.scope.c_str(),
                  event.detail.c_str());
    }
    if (forward) forward(event);
  };

  ctx.service = std::make_unique<serve::DataService>(*dataset, *codec,
                                                     std::move(scfg), nullptr);
  return ctx;
}

/// Tenant `t`'s spec, identical between the in-process serve drill and the
/// wire server — the per-tenant stream is defined by the spec, not by which
/// side of a socket the consumer sits on.
serve::TenantSpec make_tenant_spec(const TrainerArgs& args, int t,
                                   fault::Injector& injector) {
  serve::TenantSpec spec;
  spec.name = fmt("tenant{}", t);
  spec.epochs = static_cast<std::uint64_t>(args.epochs);
  spec.weight = 1 + static_cast<std::uint32_t>(t % 2);
  pipeline::PipelineConfig& pcfg = spec.pipeline;
  pcfg.batch_size = args.batch;
  pcfg.seed = 7 + static_cast<std::uint64_t>(t);
  pcfg.decode_placement = codec::Placement::kCpu;
  if (args.workload == "cosmo") {
    pcfg.ops.push_back(std::make_shared<pipeline::ScaleOp>(1.0F));
  } else {
    pcfg.ops.push_back(std::make_shared<pipeline::RandomFlipX>());
  }
  if (t == args.faulty_tenant) {
    pcfg.fault_policy = make_fault_policy(args);
    pcfg.injector = args.injecting() ? &injector : nullptr;
    apply_guard_config(pcfg, args);
  }
  return spec;
}

/// Run the serve arm (sciprep::serve, DESIGN.md §13): one resident
/// DataService, N tenant sessions with distinct shuffle seeds multiplexed on
/// the shared pool + cache, driven round-robin by one consumer. Drills:
/// --faulty-tenant T gives exactly one tenant the injector, fault policy, and
/// stage deadlines; --kill-tenant T simulates a consumer death (the drill
/// stops calling next_batch) that is lease-swept, checkpointed, reattached,
/// and completed bit-identically; --overload shrinks the in-flight byte
/// budget below aggregate demand so admissions shed deterministically.
void run_serve(const TrainerArgs& args, fault::Injector& injector,
               insight::FlightRecorder* recorder, ServeRunResult& out) {
  ServeContext ctx = make_serve_context(args, recorder);
  serve::DataService& service = *ctx.service;

  out.tenants.resize(static_cast<std::size_t>(args.tenants));
  std::vector<int> sessions(static_cast<std::size_t>(args.tenants), -1);
  for (int t = 0; t < args.tenants; ++t) {
    ServeTenantResult& tr = out.tenants[static_cast<std::size_t>(t)];
    tr.name = fmt("tenant{}", t);
    tr.faulty = t == args.faulty_tenant;

    const serve::DataService::OpenResult open =
        service.open_session(make_tenant_spec(args, t, injector));
    tr.session = open.session;
    tr.admission = open.admission;
    sessions[static_cast<std::size_t>(t)] = open.session;
    switch (open.admission) {
      case serve::Admission::kAdmitted:
        ++out.expected_admitted;
        break;
      case serve::Admission::kDegraded:
        ++out.expected_degraded;
        break;
      case serve::Admission::kRejected:
        ++out.expected_rejected;
        break;
    }
    std::printf("serve: tenant%d %s (seed %llu, weight %u)\n", t,
                serve::admission_name(open.admission),
                static_cast<unsigned long long>(7 + t), 1 + t % 2);
  }

  // Round-robin consumer: one batch per live tenant per turn, so every
  // tenant's lease stays beaten and the shared pool sees genuinely
  // interleaved fan-outs. --kill-tenant stops consuming (the session stays
  // formally active — exactly what a crashed consumer looks like).
  std::vector<bool> done(static_cast<std::size_t>(args.tenants), false);
  int live = 0;
  for (int t = 0; t < args.tenants; ++t) {
    if (sessions[static_cast<std::size_t>(t)] < 0) {
      done[static_cast<std::size_t>(t)] = true;
    } else {
      ++live;
    }
  }
  bool kill_pending = false;
  pipeline::Batch batch;
  while (live > 0) {
    for (int t = 0; t < args.tenants; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      if (done[ti]) continue;
      ServeTenantResult& tr = out.tenants[ti];
      if (t == args.kill_tenant && !tr.killed &&
          tr.batches >= args.kill_at_batch) {
        std::printf("serve: tenant%d consumer dies after batch %llu\n", t,
                    static_cast<unsigned long long>(tr.batches));
        tr.killed = true;
        kill_pending = true;
        done[ti] = true;
        --live;
        continue;
      }
      try {
        if (service.next_batch(sessions[ti], batch)) {
          ++tr.batches;
        } else {
          service.close_session(sessions[ti]);
          done[ti] = true;
          --live;
        }
      } catch (const Error& e) {
        std::printf("serve: tenant%d evicted: %s\n", t, e.what());
        tr.evicted = true;
        ++out.expected_evicted;
        done[ti] = true;
        --live;
      }
    }
  }

  // Crash recovery: let the dead consumer's lease lapse, sweep it into a
  // checkpoint, reattach under current pressure, and finish the epochs. The
  // digest is shared across the suspend, so validate/digest-compare prove
  // the continuation bit-identical.
  if (kill_pending) {
    const auto ki = static_cast<std::size_t>(args.kill_tenant);
    ServeTenantResult& tr = out.tenants[ki];
    std::this_thread::sleep_for(
        std::chrono::duration<double>(2.5 * args.lease_ms / 1e3));
    const std::vector<std::string> lost = service.sweep_leases();
    out.expected_suspended += lost.size();
    for (const std::string& name : lost) {
      std::printf("serve: lease swept '%s'\n", name.c_str());
    }
    const serve::DataService::OpenResult re = service.reattach(tr.name);
    if (re.admission == serve::Admission::kRejected) {
      ++out.expected_rejected;
    } else {
      ++out.expected_reattached;
      if (re.admission == serve::Admission::kDegraded) {
        ++out.expected_degraded;
      } else {
        ++out.expected_admitted;
      }
      tr.admission = re.admission;
      std::printf("serve: tenant%d reattached %s at batch %llu\n",
                  args.kill_tenant, serve::admission_name(re.admission),
                  static_cast<unsigned long long>(tr.batches));
      try {
        while (service.next_batch(re.session, batch)) ++tr.batches;
        service.close_session(re.session);
      } catch (const Error& e) {
        std::printf("serve: tenant%d evicted after reattach: %s\n",
                    args.kill_tenant, e.what());
        tr.evicted = true;
        ++out.expected_evicted;
      }
    }
  }

  // Harvest per-tenant outcomes before the service (and with it every
  // tenant registry and digest) goes away.
  for (int t = 0; t < args.tenants; ++t) {
    ServeTenantResult& tr = out.tenants[static_cast<std::size_t>(t)];
    if (tr.session < 0) continue;
    tr.state = service.session_state(tr.session);
    const obs::MetricsRegistry& reg = service.tenant_metrics(tr.session);
    tr.samples = reg.counter_value("pipeline.samples_total");
    tr.skipped = reg.counter_value("pipeline.samples_skipped_total");
    tr.deadline_expired = reg.counter_value("guard.deadline_expired_total");
    const shard::GlobalStreamDigest& digest = service.digest(tr.session);
    tr.stream = digest.stream_digest();
    for (int epoch = 0; epoch < args.epochs; ++epoch) {
      for (const auto& [position, crc] :
           digest.entries(static_cast<std::uint64_t>(epoch))) {
        tr.digest_lines.push_back(fmt("U {} {} {:08x}", epoch, position, crc));
      }
    }
    std::printf(
        "serve: tenant%d %s/%s — %llu batches, %llu samples, %llu skipped, "
        "stream %08x\n",
        t, serve::admission_name(tr.admission),
        serve::session_state_name(tr.state),
        static_cast<unsigned long long>(tr.batches),
        static_cast<unsigned long long>(tr.samples),
        static_cast<unsigned long long>(tr.skipped), tr.stream);
  }
  out.cache_hits = obs::MetricsRegistry::global().counter_value(
      "serve.cache.hits_total");
  out.committed_end = service.committed_bytes();
  out.shedding_end = service.shedding();
  out.queue_end = service.pool().queue_depth();
}

/// Serve-mode digest files: one per tenant ("U <epoch> <pos> <crc>" lines
/// plus a footer), named <digest_out>.tenant<t>. The chaos smoke compares
/// these byte-for-byte across fault-free and chaos runs to prove isolation
/// and reattach bit-identity.
void finish_serve_digest(const TrainerArgs& args,
                         const std::vector<ServeTenantResult>& tenants) {
  if (args.digest_out.empty()) return;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const ServeTenantResult& tr = tenants[t];
    if (tr.session < 0) continue;  // rejected tenants have no stream
    const std::string path = fmt("{}.tenant{}", args.digest_out, t);
    std::ofstream file(path, std::ios::trunc);
    if (!file) {
      throw IoError(fmt("trainer: cannot write '{}'", path));
    }
    for (const std::string& line : tr.digest_lines) file << line << '\n';
    file << fmt("T samples {} stream {:08x}\n", tr.digest_lines.size(),
                tr.stream);
  }
  std::printf("digest: %zu tenant stream(s) -> %s.tenant*\n",
              tenants.size(), args.digest_out.c_str());
}

/// --validate for serve mode: the drill's own admission bookkeeping must
/// reconcile with the serve.sessions_* counters, every completed tenant must
/// account for its samples exactly once, healthy tenants must be untouched
/// by the chaos (no skips, no deadline expiries), and the service must have
/// converged (charges released, shedding cleared, pool drained).
int validate_serve(const TrainerArgs& args, const ServeRunResult& run) {
  Checker check;
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  auto counter_matches = [&](const char* name, std::uint64_t expected) {
    check(reg.counter_value(name) == expected,
          fmt("{} is {} (drill recorded {})", name, reg.counter_value(name),
              expected));
  };
  counter_matches("serve.sessions_admitted_total", run.expected_admitted);
  counter_matches("serve.sessions_degraded_total", run.expected_degraded);
  counter_matches("serve.sessions_rejected_total", run.expected_rejected);
  counter_matches("serve.sessions_evicted_total", run.expected_evicted);
  counter_matches("serve.sessions_suspended_total", run.expected_suspended);
  counter_matches("serve.sessions_reattached_total", run.expected_reattached);

  const std::uint64_t expected_samples =
      static_cast<std::uint64_t>(args.samples) *
      static_cast<std::uint64_t>(args.epochs);
  for (std::size_t t = 0; t < run.tenants.size(); ++t) {
    const ServeTenantResult& tr = run.tenants[t];
    if (tr.session < 0 || tr.evicted) continue;
    check(tr.state == serve::SessionState::kClosed,
          fmt("tenant{} reached a clean close (state: {})", t,
              serve::session_state_name(tr.state)));
    check(tr.samples + tr.skipped == expected_samples,
          fmt("tenant{}: samples {} + skipped {} == dataset size x epochs {} "
              "(exact-once per tenant)",
              t, tr.samples, tr.skipped, expected_samples));
    check(tr.digest_lines.size() == tr.samples,
          fmt("tenant{}: digest covers every delivered sample ({} vs {})", t,
              tr.digest_lines.size(), tr.samples));
    if (!tr.faulty) {
      check(tr.skipped == 0,
            fmt("tenant{} is healthy yet skipped {} samples — isolation "
                "breach",
                t, tr.skipped));
      check(tr.deadline_expired == 0,
            fmt("tenant{} is healthy yet expired {} deadlines — overload or "
                "chaos bled across tenants",
                t, tr.deadline_expired));
    }
  }
  if (args.overload) {
    check(run.expected_degraded + run.expected_rejected > 0,
          "overload drill actually shed at least one session");
  }
  if (args.kill_tenant >= 0 &&
      run.tenants[static_cast<std::size_t>(args.kill_tenant)].session >= 0) {
    check(run.expected_suspended == 1,
          fmt("exactly the killed tenant's lease was swept ({} suspended)",
              run.expected_suspended));
    check(run.expected_reattached == 1, "the killed tenant reattached");
  } else {
    check(run.expected_suspended == 0, "no lease losses in a healthy run");
  }
  check(run.committed_end == 0,
        fmt("every admission charge was released ({} bytes still committed)",
            run.committed_end));
  check(!run.shedding_end, "shedding cleared once the roster drained");
  check(run.queue_end == 0,
        fmt("shared pool drained ({} tasks still queued)", run.queue_end));
  if (check.failures == 0) std::printf("validate(serve): OK\n");
  return check.failures;
}

/// Wire-server run summary: the serve harvest plus transport accounting.
struct WireServerRunResult {
  bool all_detached = false;
  std::uint64_t sweeps = 0;
  std::vector<ServeTenantResult> tenants;
  std::vector<wire::TenantWireStats> wire_stats;
};

/// Run the wire server arm (--serve-socket, DESIGN.md §14): the serve
/// drill's resident DataService fronted by a WireServer on an AF_UNIX
/// socket, with every consumer a separate process. The server registers the
/// same tenant specs the in-process drill would open, serves until every
/// tenant has cleanly detached (or the deadline passes), and harvests the
/// same per-tenant digests — so digest files from a socket-served run can be
/// byte-compared against an in-process run. --inject-wire-corrupt /
/// --inject-wire-drop arm the transport fault sites.
void run_wire_server(const TrainerArgs& args, fault::Injector& injector,
                     insight::FlightRecorder* recorder,
                     WireServerRunResult& out) {
  ServeContext ctx = make_serve_context(args, recorder);
  serve::DataService& service = *ctx.service;

  std::vector<serve::TenantSpec> tenants;
  tenants.reserve(static_cast<std::size_t>(args.tenants));
  for (int t = 0; t < args.tenants; ++t) {
    tenants.push_back(make_tenant_spec(args, t, injector));
  }

  wire::WireServerConfig wcfg;
  wcfg.socket_path = args.serve_socket;
  // Short enough that stop() and lease sweeps never wait long on an idle
  // connection, long enough that a healthy client never times out a request.
  wcfg.request_timeout_seconds = 2.0;
  wcfg.sweep_interval_seconds = args.lease_ms / 2e3;
  wcfg.throttle_send_seconds = args.throttle_wire_ms / 1e3;
  if (args.throttle_wire_ms > 0) {
    std::printf("wire: throttling every reply by %.1f ms\n",
                args.throttle_wire_ms);
  }
  if (args.inject_wire_corrupt > 0 || args.inject_wire_drop > 0) {
    wcfg.injector = &injector;
    std::printf(
        "wire: injecting frame corruption %.2f%% + connection drops %.2f%% "
        "(seed %llu)\n",
        args.inject_wire_corrupt * 100, args.inject_wire_drop * 100,
        static_cast<unsigned long long>(args.inject_seed));
  }
  fault::RecoveryListener forward =
      recorder != nullptr ? recorder->listener() : fault::RecoveryListener{};
  wcfg.on_event = [forward](const fault::RecoveryEvent& event) {
    if (event.kind == fault::EventKind::kWireFault) {
      std::printf("wire: [%s] %s\n", event.scope.c_str(),
                  event.detail.c_str());
    }
    if (forward) forward(event);
  };

  // Name the server's track in merged traces; clients pull this (plus the
  // real pid) over the TRACE control frame.
  obs::Tracer::global().set_process_name("trainer-server");

  wire::WireServer server(service, std::move(tenants), wcfg);
  server.start();
  std::printf("wire: serving %d tenant(s) on %s\n", args.tenants,
              args.serve_socket.c_str());
  std::fflush(stdout);

  // Serve until the roster drains. The deadline is generous — consumers may
  // be SIGKILLed and replaced while we wait — but bounded, so an abandoned
  // server exits instead of lingering forever.
  out.all_detached = server.wait_all_detached(120.0);
  server.stop();
  out.sweeps = server.sweeps_total();

  out.tenants.resize(static_cast<std::size_t>(args.tenants));
  out.wire_stats.resize(static_cast<std::size_t>(args.tenants));
  for (int t = 0; t < args.tenants; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    ServeTenantResult& tr = out.tenants[ti];
    tr.name = fmt("tenant{}", t);
    tr.faulty = t == args.faulty_tenant;
    tr.session = server.tenant_session(tr.name);
    if (tr.session < 0) continue;  // never attached
    const wire::TenantWireStats ws = server.tenant_stats(tr.name);
    out.wire_stats[ti] = ws;
    tr.admission = service.session_admission(tr.session);
    tr.state = service.session_state(tr.session);
    tr.batches = ws.batches;
    tr.samples = ws.samples;
    const shard::GlobalStreamDigest& digest = service.digest(tr.session);
    tr.stream = digest.stream_digest();
    for (int epoch = 0; epoch < args.epochs; ++epoch) {
      for (const auto& [position, crc] :
           digest.entries(static_cast<std::uint64_t>(epoch))) {
        tr.digest_lines.push_back(fmt("U {} {} {:08x}", epoch, position, crc));
      }
    }
    std::printf(
        "wire: tenant%d %s/%s — %llu batches, %llu samples, %llu attach(es), "
        "%llu resend(s), %llu sweep(s), stream %08x\n",
        t, serve::admission_name(tr.admission),
        serve::session_state_name(tr.state),
        static_cast<unsigned long long>(ws.batches),
        static_cast<unsigned long long>(ws.samples),
        static_cast<unsigned long long>(ws.attaches),
        static_cast<unsigned long long>(ws.resends),
        static_cast<unsigned long long>(ws.sweeps), tr.stream);
  }
}

/// --validate for the wire server: the roster must have drained cleanly,
/// every attached tenant's digest must cover its delivered samples, and when
/// transport faults were injected the recovery machinery must actually have
/// been exercised (resends for drops, re-attaches for corruption).
int validate_wire_server(const TrainerArgs& args,
                         const WireServerRunResult& run) {
  Checker check;
  check(run.all_detached, "every tenant detached before the serve deadline");
  std::uint64_t attaches = 0;
  std::uint64_t resends = 0;
  const std::uint64_t expected_samples =
      static_cast<std::uint64_t>(args.samples) *
      static_cast<std::uint64_t>(args.epochs);
  for (std::size_t t = 0; t < run.tenants.size(); ++t) {
    const ServeTenantResult& tr = run.tenants[t];
    const wire::TenantWireStats& ws = run.wire_stats[t];
    attaches += ws.attaches;
    resends += ws.resends;
    check(tr.session >= 0, fmt("tenant{} was attached at least once", t));
    if (tr.session < 0) continue;
    check(ws.detached, fmt("tenant{} detached cleanly", t));
    check(tr.state == serve::SessionState::kClosed,
          fmt("tenant{} reached a clean close (state: {})", t,
              serve::session_state_name(tr.state)));
    if (!tr.faulty) {
      check(tr.samples == expected_samples,
            fmt("tenant{}: {} samples served over the wire == dataset size x "
                "epochs {} (exact-once per tenant)",
                t, tr.samples, expected_samples));
    }
    check(tr.digest_lines.size() == tr.samples,
          fmt("tenant{}: digest covers every served sample ({} vs {})", t,
              tr.digest_lines.size(), tr.samples));
  }
  if (args.inject_wire_drop > 0) {
    check(resends > 0,
          "injected connection drops actually exercised redelivery");
  }
  if (args.inject_wire_corrupt > 0 || args.inject_wire_drop > 0) {
    check(attaches > static_cast<std::uint64_t>(args.tenants),
          fmt("injected transport faults forced at least one re-attach "
              "({} attaches across {} tenants)",
              attaches, args.tenants));
  }
  if (check.failures == 0) std::printf("validate(wire-server): OK\n");
  return check.failures;
}

/// Wire-client run summary.
struct WireClientRunResult {
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  bool resumed = false;
  bool degraded = false;
  wire::WireClientStats stats;
  wire::DetachedPayload server_stats;
  std::uint32_t stream = 0;  // this process's delivered-stream digest
  std::vector<std::string> digest_lines;
  // sciprep::flow state (populated when --trace-propagate is on).
  std::uint64_t trace_id = 0;
  flow::ClockOffset clock_offset;
  wire::TracePayload server_trace;    // server span ring + identity
  obs::MetricsSnapshot server_totals; // accumulated per-tenant STATS deltas
  std::string server_scope;           // "tenant/<name>" per the server
  std::string fleet_jsonl;            // fleet.v1 lines for --fleet-out
};

/// Run the wire client arm (--connect --tenant-name): attach to a wire
/// server, consume the tenant's whole stream, detach. --kill-after-batches
/// simulates a consumer crash (exit 42, no cleanup — the server's lease
/// sweep must notice); a replacement process passes --resumed and takes the
/// stream over from where the server says it stands.
void run_wire_client(const TrainerArgs& args, WireClientRunResult& out) {
  wire::WireClientConfig ccfg;
  ccfg.socket_path = args.connect;
  ccfg.tenant = args.tenant_name;
  ccfg.request_timeout_seconds = 5.0;
  ccfg.trace_propagate = args.trace_propagate;
  if (args.trace_propagate) {
    // Name this process's track in merged traces by the tenant it consumes.
    obs::Tracer::global().set_process_name(fmt("trainer-{}", args.tenant_name));
  }
  wire::WireClient client(ccfg);
  client.attach();
  out.resumed = client.resumed();
  std::printf("wire: attached '%s' (session %d%s%s)\n",
              args.tenant_name.c_str(), client.server_session(),
              client.resumed() ? ", resumed" : "",
              client.degraded() ? ", degraded" : "");

  // One STATS pull = one fleet.v1 line: the server's per-tenant snapshot
  // delta since the previous pull, stamped with this process's run clock.
  auto pull_fleet_line = [&]() {
    const wire::StatsPayload pulled = client.pull_server_stats();
    out.fleet_jsonl += obs::fleet_line(
        pulled.scope, client.stats_pulls(),
        static_cast<double>(obs::Tracer::global().now_ns()) / 1e9,
        client.server_totals(), pulled.delta);
    out.fleet_jsonl += '\n';
  };

  pipeline::Batch batch;
  while (client.next(batch)) {
    ++out.batches;
    out.samples += batch.samples.size();
    if (!args.fleet_out.empty() && out.batches % 16 == 0) pull_fleet_line();
    if (args.kill_after_batches > 0 && out.batches >= args.kill_after_batches) {
      // Simulated consumer crash: no DETACH, no close, no destructors. The
      // server finds out the hard way (EOF, then a lease sweep).
      std::printf("kill: simulating crash after batch %llu\n",
                  static_cast<unsigned long long>(out.batches));
      std::fflush(stdout);
      std::_Exit(42);
    }
  }
  if (args.trace_propagate) {
    // Final pulls before DETACH tears the session down: the closing STATS
    // delta completes the fleet series (sum of deltas == the server's tenant
    // registry), and the TRACE pull captures the server-side spans for this
    // client's whole stream.
    if (args.fleet_out.empty()) {
      (void)client.pull_server_stats();  // totals still feed the analyzer
    } else {
      pull_fleet_line();
    }
    out.server_trace = client.pull_server_trace();
    out.trace_id = client.trace_id();
    out.clock_offset = client.clock_offset();
    out.server_totals = client.server_totals();
    out.server_scope = client.server_scope();
  }
  out.server_stats = client.detach();
  out.stats = client.stats();
  out.degraded = client.degraded();
  out.stream = client.digest().stream_digest();
  for (int epoch = 0; epoch < args.epochs; ++epoch) {
    for (const auto& [position, crc] :
         client.digest().entries(static_cast<std::uint64_t>(epoch))) {
      out.digest_lines.push_back(fmt("U {} {} {:08x}", epoch, position, crc));
    }
  }
  std::printf(
      "wire: '%s' done — %llu batches, %llu samples, %llu attach(es), "
      "%llu reconnect(s), %llu corrupt frame(s), stream %08x\n",
      args.tenant_name.c_str(), static_cast<unsigned long long>(out.batches),
      static_cast<unsigned long long>(out.samples),
      static_cast<unsigned long long>(out.stats.attaches),
      static_cast<unsigned long long>(out.stats.reconnects),
      static_cast<unsigned long long>(out.stats.corrupt_frames), out.stream);
}

/// Wire-client digest file: same "U <epoch> <pos> <crc>" + footer format as
/// the server's per-tenant files, so client-side and server-side views of
/// one tenant's stream can be byte-compared with cmp(1).
int finish_wire_client_digest(const TrainerArgs& args,
                              const WireClientRunResult& run) {
  std::string body;
  for (const std::string& line : run.digest_lines) {
    body += line;
    body += '\n';
  }
  body += fmt("T samples {} stream {:08x}\n", run.digest_lines.size(),
              run.stream);
  if (!args.digest_out.empty()) {
    std::ofstream file(args.digest_out, std::ios::trunc);
    if (!file) {
      throw IoError(fmt("trainer: cannot write '{}'", args.digest_out));
    }
    file << body;
    std::printf("digest: %zu samples -> %s\n", run.digest_lines.size(),
                args.digest_out.c_str());
  }
  if (args.expect_digest.empty()) return 0;
  std::ifstream in(args.expect_digest, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "digest: FAIL cannot read expected digest '%s'\n",
                 args.expect_digest.c_str());
    return 1;
  }
  std::ostringstream expected;
  expected << in.rdbuf();
  if (expected.str() != body) {
    std::fprintf(stderr,
                 "digest: FAIL delivered stream differs from '%s' — the "
                 "wire run is not bit-identical\n",
                 args.expect_digest.c_str());
    return 1;
  }
  std::printf("digest: matches %s (bit-identical delivery)\n",
              args.expect_digest.c_str());
  return 0;
}

/// Flow artifacts for a traced wire client: the fleet.v1 JSONL of server
/// snapshot deltas (--fleet-out) and the merged two-process Chrome trace
/// (--flow-merge), with the server's track shifted onto this process's
/// timeline by the CLOCK_SYNC offset.
void finish_flow(const TrainerArgs& args, const WireClientRunResult& run) {
  if (!args.fleet_out.empty()) {
    sysio::write_file(args.fleet_out, as_bytes(run.fleet_jsonl));
    std::printf("fleet: scope '%s' -> %s\n", run.server_scope.c_str(),
                args.fleet_out.c_str());
  }
  if (args.flow_merge_out.empty()) return;

  obs::Tracer& tracer = obs::Tracer::global();
  std::vector<flow::ProcessTrace> procs(2);
  flow::ProcessTrace& local = procs[0];
  local.process_name = tracer.process_name();
  local.pid = static_cast<std::int64_t>(::getpid());
  local.spans = tracer.snapshot();
  for (const obs::TraceSpan& span : local.spans) {
    local.thread_names.emplace(span.thread, thread_name(span.thread));
  }
  flow::ProcessTrace& remote = procs[1];
  remote.process_name = run.server_trace.process_name;
  remote.pid = run.server_trace.pid;
  // local = remote - offset, applied by the merger as a per-track shift.
  remote.shift_ns = -run.clock_offset.offset_ns;
  remote.spans = run.server_trace.spans;

  std::ofstream file(args.flow_merge_out, std::ios::trunc);
  if (!file) {
    throw IoError(fmt("trainer: cannot write '{}'", args.flow_merge_out));
  }
  file << flow::merge_chrome_json(procs);
  std::printf(
      "flow: merged %zu local + %zu server span(s) -> %s "
      "(clock offset %.3f ms +/- %.3f ms over %u sample(s))\n",
      local.spans.size(), remote.spans.size(), args.flow_merge_out.c_str(),
      static_cast<double>(run.clock_offset.offset_ns) / 1e6,
      static_cast<double>(run.clock_offset.error_bound_ns) / 1e6,
      run.clock_offset.samples);
}

/// --validate for flow: walk the cross-process span linkage and prove the
/// end-to-end decomposition materialized — nearly every client batch span
/// must link to a server span tree with the queue-wait/encode/send children,
/// span time must agree with the attribution histograms recorded at the same
/// sites, and the fleet series must reconcile (sum of pulled deltas == the
/// server's declared tenant totals).
int validate_flow_client(const TrainerArgs& args,
                         const WireClientRunResult& run) {
  Checker check;
  obs::Tracer& tracer = obs::Tracer::global();
  const flow::FlowValidation v = flow::validate_flow(
      tracer.snapshot(), run.server_trace.spans,
      obs::MetricsRegistry::global().snapshot(), run.server_totals,
      tracer.dropped_total(), run.server_trace.spans_dropped);
  std::printf("flow: %s\n", v.to_json().c_str());

  check(run.trace_id != 0, "a trace id was negotiated at attach");
  check(run.clock_offset.valid,
        "the CLOCK_SYNC handshake produced a usable offset");
  check(v.client_batches > 0, "the client recorded batch spans");
  check(v.linked > 0, "client batch spans link to server-side spans");
  check(v.decomposed_fraction >= 0.95,
        fmt("at least 95% of batch spans fully decomposed ({} of {})",
            v.decomposed, v.client_batches));
  check(v.histograms_consistent,
        fmt("span time agrees with attribution histograms "
            "(client {:.6f}s vs {:.6f}s, server {:.6f}s vs {:.6f}s)",
            v.client_span_seconds, v.client_hist_seconds,
            v.server_span_seconds, v.server_hist_seconds));
  if (!args.fleet_out.empty()) {
    const flow::FleetMergeResult fleet =
        flow::merge_fleet({{run.server_scope, run.fleet_jsonl}});
    check(fleet.reconciled,
          fmt("fleet series reconciles: sum of '{}' deltas equals the "
              "server's declared totals",
              run.server_scope));
    check(fleet.lines_skipped == 0,
          fmt("every fleet line parsed ({} skipped)", fleet.lines_skipped));
  }
  if (check.failures == 0) std::printf("validate(flow): OK\n");
  return check.failures;
}

/// --validate for a wire client: the server's DETACHED accounting must agree
/// with what this process saw, and for a full (non-resumed) run the two
/// sides' stream digests must be identical — exactly-once delivery of the
/// exact bytes. A --resumed replacement instead proves the crash machinery
/// ran: the server swept the dead predecessor's lease and this process
/// re-attached the same session.
int validate_wire_client(const TrainerArgs& args,
                         const WireClientRunResult& run) {
  Checker check;
  check(run.digest_lines.size() == run.samples,
        fmt("digest covers every delivered sample ({} vs {})",
            run.digest_lines.size(), run.samples));
  check(run.server_stats.batches >= run.batches,
        fmt("server served at least the batches this process delivered "
            "({} vs {})",
            run.server_stats.batches, run.batches));
  if (args.expect_resumed) {
    check(run.resumed, "this process resumed an existing session");
    check(run.server_stats.sweeps >= 1,
          fmt("the dead predecessor's lease was swept ({} sweeps)",
              run.server_stats.sweeps));
    check(run.server_stats.attaches >= 2,
          fmt("the tenant attached at least twice ({} attaches)",
              run.server_stats.attaches));
  } else {
    check(!run.resumed, "a fresh tenant did not resume anything");
    const std::uint64_t expected_samples =
        static_cast<std::uint64_t>(args.samples) *
        static_cast<std::uint64_t>(args.epochs);
    check(run.samples == expected_samples,
          fmt("{} samples delivered == dataset size x epochs {} "
              "(exactly-once)",
              run.samples, expected_samples));
    check(run.stream == run.server_stats.digest_crc,
          fmt("client and server stream digests agree ({:08x} vs {:08x})",
              run.stream, run.server_stats.digest_crc));
  }
  if (check.failures == 0) std::printf("validate(wire-client): OK\n");
  return check.failures;
}

/// Read an emitted artifact back as text; an unreadable file is a violation
/// and reads as empty.
std::string read_back(Checker& check, const std::string& path) {
  try {
    const Bytes bytes = sysio::read_file(path);
    return std::string(bytes.begin(), bytes.end());
  } catch (const IoError&) {
    check(false, fmt("'{}' is readable", path));
    return {};
  }
}

/// Read an emitted JSON artifact back and parse it; `what` names it in the
/// validity check.
obs::JsonValue read_json(Checker& check, const std::string& path,
                         const std::string& what) {
  obs::JsonValue doc;
  check(obs::json_parse(read_back(check, path), doc),
        fmt("{} is valid JSON", what));
  return doc;
}

/// --validate: re-read the emitted artifacts and cross-check them. Returns
/// the number of violations (0 = clean).
int validate_outputs(const TrainerArgs& args,
                     const pipeline::PipelineStats& stats,
                     const std::vector<std::size_t>& quarantine) {
  Checker check;

  if (!args.trace_out.empty()) {
    const obs::JsonValue trace = read_json(check, args.trace_out, "trace file");
    std::set<std::string> spans;
    for (const obs::JsonValue& event : trace.at("traceEvents").as_array()) {
      spans.insert(event.string_or("name", ""));
    }
    std::vector<std::string> expected = {
        "pipeline.shuffle", "pipeline.decode", "pipeline.ops",
        "pipeline.batch_assemble", "pipeline.prefetch_wait"};
    if (args.placement == "gpu") expected.push_back("sim.kernel");
    expected.push_back(fmt("codec.{}.decode_{}", args.workload,
                           args.placement));
    for (const std::string& name : expected) {
      check(spans.count(name) > 0, fmt("trace contains span '{}'", name));
    }
  }

  if (!args.metrics_out.empty()) {
    const obs::JsonValue metrics =
        read_json(check, args.metrics_out, "metrics file");
    const obs::JsonValue& counters = metrics.at("counters");
    const obs::JsonValue& histograms = metrics.at("histograms");
    auto check_has = [&](const obs::JsonValue& section,
                         const std::string& key) {
      check(section.has(key), fmt("metrics contains '{}'", key));
    };
    for (const char* key :
         {"pipeline.stage.decode_seconds", "pipeline.stage.ops_seconds",
          "pipeline.stage.batch_assemble_seconds",
          "pipeline.stage.prefetch_wait_seconds"}) {
      check_has(histograms, key);
    }
    for (const char* key : {"pipeline.pool.tasks_total",
                            "pipeline.samples_total",
                            "pipeline.bytes_at_rest_total"}) {
      check_has(counters, key);
    }
    bool quantiles = !histograms.as_object().empty();
    for (const auto& [name, h] : histograms.as_object()) {
      quantiles = quantiles && h.has("p50") && h.has("p90") && h.has("p99");
    }
    check(quantiles, "metrics histograms carry p50/p90/p99 summaries");
    check_has(counters, fmt("codec.{}.decode_bytes_in_total", args.workload));
    if (args.injecting()) {
      check_has(counters, "fault.injected_total");
      check(counters.number_or("pipeline.samples_skipped_total", -1) ==
                static_cast<double>(stats.samples_skipped),
            "metrics dump agrees with stats.samples_skipped");
    }
  }

  // Epoch accounting: every sample of every epoch is either delivered or
  // skipped — nothing is silently lost.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(args.samples) *
      static_cast<std::uint64_t>(args.epochs);
  check(stats.samples + stats.samples_skipped == expected,
        fmt("samples {} + skipped {} == dataset size x epochs {}",
            stats.samples, stats.samples_skipped, expected));
  // Every skip event names a quarantined id; the de-duplicated quarantine
  // can only be smaller (the same bad record re-skips each epoch).
  check(quarantine.size() <= stats.samples_skipped,
        fmt("quarantine size {} <= skip events {}", quarantine.size(),
            stats.samples_skipped));
  check((stats.samples_skipped == 0) == quarantine.empty(),
        "quarantine and the skip counter agree on whether skips happened");
  if (args.injecting() && args.fault_policy != "fail") {
    check(stats.degraded == (stats.samples_skipped + stats.retries +
                             stats.fallbacks > 0),
          "degraded gauge tracks recovery events");
  }

  // PipelineStats is assembled from the registry — the two must agree.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  check(stats.samples == reg.counter_value("pipeline.samples_total"),
        "stats.samples matches pipeline.samples_total");
  check(stats.batches == reg.counter_value("pipeline.batches_total"),
        "stats.batches matches pipeline.batches_total");
  check(stats.bytes_at_rest == reg.counter_value("pipeline.bytes_at_rest_total"),
        "stats.bytes_at_rest matches pipeline.bytes_at_rest_total");
  if (args.placement == "gpu") {
    check(stats.gpu.warps == reg.counter_value("pipeline.gpu.warps_total"),
          "stats.gpu.warps matches pipeline.gpu.warps_total");
    check(stats.decode_cpu_seconds == 0.0,
          "GPU placement leaves decode_cpu_seconds at zero");
  }
  if (check.failures == 0) std::printf("validate: OK\n");
  return check.failures;
}

/// --validate for the insight artifacts: the bottleneck report, the JSONL
/// time-series, and the flight-recorder incidents. Returns the number of
/// violations (0 = clean).
int validate_insight(const TrainerArgs& args, std::uint64_t fingerprint) {
  Checker check;

  if (!args.report_out.empty()) {
    const obs::JsonValue report =
        read_json(check, args.report_out, "bottleneck report");
    check(report.string_or("schema", "") == "sciprep.insight.bottleneck.v1",
          "bottleneck report carries its schema tag");
    // Instrumentation drift: a pipeline.stage.* histogram the analyzer does
    // not recognise means a stage was added without teaching the analyzer.
    const obs::JsonValue& unattributed = report.at("unattributed_histograms");
    check(unattributed.is_array() && unattributed.as_array().empty(),
          "analyzer attributes every pipeline.stage.* histogram");
    if (args.inject_delay > 0) {
      check(report.string_or("dominant_stage", "") == "io.read",
            "injected IO stalls make io.read the dominant stage");
    }
    // Cross-check the analyzer against the histogram it summarizes: the
    // report's io.read busy-seconds must equal the registry's
    // pipeline.stage.io_read_seconds sum (io.read is exclusive as recorded,
    // so no subtraction is involved on either side).
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    const auto hist = snap.histograms.find("pipeline.stage.io_read_seconds");
    const obs::JsonValue* io_read = nullptr;
    for (const obs::JsonValue& stage : report.at("stages").as_array()) {
      if (stage.string_or("name", "") == "io.read") io_read = &stage;
    }
    if (hist != snap.histograms.end() && io_read != nullptr &&
        io_read->has("busy_seconds")) {
      const double reported = io_read->number_or("busy_seconds", -1);
      const double actual = hist->second.sum;
      check(std::fabs(reported - actual) <=
                std::max(1e-6, 0.01 * std::fabs(actual)),
            fmt("report io.read busy {:.6f}s matches histogram sum {:.6f}s",
                reported, actual));
    } else {
      check(false, "report and registry both account for io.read");
    }
  }

  if (!args.metrics_jsonl.empty()) {
    std::istringstream in(read_back(check, args.metrics_jsonl));
    std::size_t lines = 0;
    bool retried = false;
    bool saw_rss = false;
    bool saw_cpu = false;
    for (std::string line; std::getline(in, line);) {
      if (line.empty()) continue;
      ++lines;
      obs::JsonValue tick;
      check(obs::json_parse(line, tick),
            fmt("metrics JSONL line {} is valid JSON", lines));
      const obs::JsonValue& retries =
          tick.at("counters").at("pipeline.retries_total");
      if (retries.number_or("delta", 0) > 0) retried = true;
      if (tick.at("gauges").has("proc.rss_bytes")) saw_rss = true;
      if (tick.at("gauges").has("proc.cpu_utime_ms")) saw_cpu = true;
    }
    check(lines > 0, "metrics JSONL contains at least one tick");
    if (args.inject_transient > 0 && args.fault_policy == "retry-skip") {
      check(retried,
            "JSONL time-series shows a non-zero retry delta under injection");
    }
#if !defined(SCIPREP_OBS_DISABLED)
    // The ResourceSampler publishes on the exporter cadence unless it was
    // turned off, so every run's time-series must carry the proc.* gauges —
    // a missing key means the pre_tick hook fell off the exporter.
    if (args.resource_sampling) {
      check(saw_rss, "JSONL time-series carries the proc.rss_bytes gauge");
      check(saw_cpu, "JSONL time-series carries the proc.cpu_utime_ms gauge");
    }
#else
    (void)saw_rss;
    (void)saw_cpu;
#endif
  }

  if (!args.flightrec_dir.empty()) {
    std::size_t incidents = 0;
    bool saw_deadline = false;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(args.flightrec_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("incident-", 0) != 0) continue;
      ++incidents;
      const obs::JsonValue body = read_json(check, entry.path().string(),
                                            fmt("incident '{}'", name));
      if (!args.trace_out.empty()) {
        const auto& spans = body.at("spans").as_array();
        check(std::any_of(spans.begin(), spans.end(),
                          [](const obs::JsonValue& span) {
                            return span.has("t_start_ns");
                          }),
              fmt("incident '{}' embeds at least one span", name));
      }
      check(body.string_or("config_fingerprint", "") ==
                fmt("{:x}", fingerprint),
            fmt("incident '{}' names this run's config fingerprint", name));
      if (name.find("-deadline_expired.json") != std::string::npos) {
        saw_deadline = true;
      }
    }
    check(!ec, fmt("flight-recorder dir '{}' is listable", args.flightrec_dir));
    check(incidents > 0, "flight recorder wrote at least one incident");
    if (args.stage_deadline_ms > 0 && args.inject_delay > 0) {
      check(saw_deadline, "a deadline-expiry incident was recorded");
    }
  }

  if (check.failures == 0) std::printf("validate(insight): OK\n");
  return check.failures;
}

}  // namespace

int main(int argc, char** argv) {
  const TrainerArgs args = parse_args(argc, argv);
  set_thread_name("consumer");  // labels the training loop in traces/incidents
  if (!args.trace_out.empty()) {
    obs::Tracer::global().set_enabled(true);
  }

  sim::SimGpu gpu({.sm_count = 80, .warps_per_sm = 8});
  fault::Injector injector(args.inject_seed, &obs::MetricsRegistry::global());
  configure_injector(injector, args);
  if (args.injecting()) {
    std::printf(
        "fault injection: transient %.2f%% + corrupt %.2f%% + truncate "
        "%.2f%% + delay %.2f%% x %.1fms (seed %llu), policy %s\n",
        args.inject_transient * 100, args.inject_corrupt * 100,
        args.inject_truncate * 100, args.inject_delay * 100,
        args.inject_delay_ms,
        static_cast<unsigned long long>(args.inject_seed),
        args.fault_policy.c_str());
  }
  pipeline::PipelineStats stats;
  std::vector<std::size_t> quarantine;
  std::uint64_t fingerprint = 0;
  RunGuard rg(args);

  std::optional<insight::FlightRecorder> recorder;
  if (!args.flightrec_dir.empty()) {
    insight::FlightRecorderConfig fcfg;
    fcfg.dir = args.flightrec_dir;
    recorder.emplace(std::move(fcfg));
  }
  // Declared before the exporter: the pre_tick hook runs on the exporter
  // thread, so the sampler must outlive it.
  std::optional<obs::ResourceSampler> sampler;
  std::optional<insight::ContinuousExporter> exporter;
  if (!args.metrics_jsonl.empty() || !args.metrics_prom.empty()) {
    insight::ExporterConfig ecfg;
    ecfg.interval_seconds = args.metrics_interval_ms / 1e3;
    ecfg.jsonl_path = args.metrics_jsonl;
    ecfg.prom_path = args.metrics_prom;
    // Scope the series for fleet federation: a wire client's ticks merge
    // into the fleet view keyed by the tenant it consumes.
    if (args.wire_client()) ecfg.scope = fmt("client/{}", args.tenant_name);
    if (args.resource_sampling) {
      sampler.emplace();
      ecfg.pre_tick = sampler->exporter_hook();
    }
    exporter.emplace(std::move(ecfg));
    exporter->start();
  }

  ShardRunResult shard_run;
  ServeRunResult serve_run;
  WireServerRunResult wire_server_run;
  WireClientRunResult wire_client_run;
  const auto wall_t0 = std::chrono::steady_clock::now();
  try {
    if (args.wire_server()) {
      run_wire_server(args, injector, recorder ? &*recorder : nullptr,
                      wire_server_run);
    } else if (args.wire_client()) {
      run_wire_client(args, wire_client_run);
    } else if (args.serve) {
      run_serve(args, injector, recorder ? &*recorder : nullptr, serve_run);
    } else if (args.sharded()) {
      run_shard(args, injector, recorder ? &*recorder : nullptr, shard_run);
    } else if (args.workload == "cosmo") {
      run_cosmo(args, gpu, injector, rg, recorder ? &*recorder : nullptr,
                stats, quarantine, fingerprint);
    } else {
      run_cam(args, gpu, injector, rg, recorder ? &*recorder : nullptr,
              stats, quarantine, fingerprint);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "trainer: %s\n", e.what());
    return 1;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_t0)
          .count();
  if (exporter) exporter->stop();  // final flush covers the partial interval

  if (args.sharded()) stats = shard_run.stats.totals;
  if (args.wire_server()) {
    std::uint64_t samples = 0;
    std::uint64_t batches = 0;
    for (const ServeTenantResult& tr : wire_server_run.tenants) {
      samples += tr.samples;
      batches += tr.batches;
    }
    std::printf(
        "\nwire: served %llu samples in %llu batches to %d tenant(s), "
        "%llu lease sweep(s)\n",
        static_cast<unsigned long long>(samples),
        static_cast<unsigned long long>(batches), args.tenants,
        static_cast<unsigned long long>(wire_server_run.sweeps));
  } else if (args.wire_client()) {
    std::printf(
        "\nwire: delivered %llu samples in %llu batches over %s\n",
        static_cast<unsigned long long>(wire_client_run.samples),
        static_cast<unsigned long long>(wire_client_run.batches),
        args.connect.c_str());
  } else if (args.serve) {
    std::uint64_t samples = 0;
    std::uint64_t batches = 0;
    for (const ServeTenantResult& tr : serve_run.tenants) {
      samples += tr.samples;
      batches += tr.batches;
    }
    std::printf(
        "\nserve: %llu samples in %llu batches across %d tenant(s), "
        "%llu cache hits\n",
        static_cast<unsigned long long>(samples),
        static_cast<unsigned long long>(batches), args.tenants,
        static_cast<unsigned long long>(serve_run.cache_hits));
  } else {
    std::printf(
        "\npipeline: %llu samples in %llu batches (%s at rest), "
        "decode cpu %.1f ms / gpu %.1f ms\n",
        static_cast<unsigned long long>(stats.samples),
        static_cast<unsigned long long>(stats.batches),
        format_bytes(stats.bytes_at_rest).c_str(),
        stats.decode_cpu_seconds * 1e3, stats.decode_gpu_seconds * 1e3);
  }
  if (args.sharded()) {
    std::printf(
        "shard: world %d, %d alive; %llu lost, %llu reshards "
        "(%llu samples redistributed), %llu checkpoints; stream %08x\n",
        shard_run.stats.world, shard_run.stats.alive,
        static_cast<unsigned long long>(shard_run.stats.ranks_lost),
        static_cast<unsigned long long>(shard_run.stats.reshards),
        static_cast<unsigned long long>(shard_run.stats.resharded_samples),
        static_cast<unsigned long long>(shard_run.stats.checkpoints),
        shard_run.stream_digest);
  }
  if (stats.degraded) {
    std::printf(
        "faults: %llu injected; %llu retries, %llu skipped "
        "(%zu unique quarantined ids), %llu fallbacks — degraded mode\n",
        static_cast<unsigned long long>(injector.injected_total()),
        static_cast<unsigned long long>(stats.retries),
        static_cast<unsigned long long>(stats.samples_skipped),
        quarantine.size(), static_cast<unsigned long long>(stats.fallbacks));
  }
  std::printf("\n%s", obs::MetricsRegistry::global().human_dump().c_str());

  try {
    int failures = 0;
    if (args.wire_server()) {
      finish_serve_digest(args, wire_server_run.tenants);
    } else if (args.wire_client()) {
      failures = finish_wire_client_digest(args, wire_client_run);
      if (args.trace_propagate) finish_flow(args, wire_client_run);
    } else if (args.serve) {
      finish_serve_digest(args, serve_run.tenants);
    } else if (args.sharded()) {
      failures = finish_shard_digest(args, shard_run);
    } else {
      failures = rg.finish(stats, quarantine);
    }
    if (!args.trace_out.empty()) {
      obs::Tracer::global().write_chrome_json(args.trace_out);
      std::printf("trace: %zu spans -> %s\n",
                  obs::Tracer::global().size(), args.trace_out.c_str());
    }
    if (!args.metrics_out.empty()) {
      obs::MetricsRegistry::global().write_json(args.metrics_out);
      std::printf("metrics: -> %s\n", args.metrics_out.c_str());
    }
    if (!args.report_out.empty()) {
      insight::AnalyzerInput input;
      input.wall_seconds = wall_seconds;
      input.workers = args.workers;
      if (args.wire_client() && args.trace_propagate) {
        // Wire-aware attribution: the accumulated server-side deltas let the
        // analyzer split client wait into queue/encode/send/socket stages.
        input.server_metrics = &wire_client_run.server_totals;
      }
      const insight::BottleneckReport report =
          insight::analyze_critical_path(input);
      insight::write_report(args.report_out, report);
      std::printf("\n%s", report.human_table().c_str());
      std::printf("report: -> %s\n", args.report_out.c_str());
    }
    if (exporter) {
      std::printf("metrics ticks: %llu -> %s\n",
                  static_cast<unsigned long long>(exporter->ticks_total()),
                  (args.metrics_jsonl.empty() ? args.metrics_prom
                                              : args.metrics_jsonl)
                      .c_str());
    }
    if (recorder) {
      std::printf(
          "flightrec: %llu incidents written, %llu suppressed -> %s\n",
          static_cast<unsigned long long>(recorder->incidents_written()),
          static_cast<unsigned long long>(recorder->incidents_suppressed()),
          args.flightrec_dir.c_str());
    }
    if (args.validate) {
      if (args.wire_server()) {
        failures += validate_wire_server(args, wire_server_run);
      } else if (args.wire_client()) {
        failures += validate_wire_client(args, wire_client_run);
        if (args.trace_propagate) {
          failures += validate_flow_client(args, wire_client_run);
        }
      } else if (args.serve) {
        // Tenant pipelines run on private registries, so the unsharded
        // registry cross-checks don't apply; the serve validator covers
        // per-tenant exact-once accounting, counter reconciliation, and
        // service convergence instead.
        failures += validate_serve(args, serve_run);
      } else if (args.sharded()) {
        // Per-rank pipeline metrics live in private registries, so the
        // unsharded registry cross-checks don't apply; the shard validator
        // covers exact-once accounting and digest coverage instead.
        failures += validate_shard(args, shard_run);
      } else {
        failures += validate_outputs(args, stats, quarantine);
        failures += validate_insight(args, fingerprint);
      }
    }
    return failures == 0 ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "trainer: %s\n", e.what());
    return 1;
  }
}
