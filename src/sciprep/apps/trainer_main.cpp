// trainer — end-to-end training driver with observability export.
//
// Runs the full §VI integration (encoded dataset -> DataPipeline -> model)
// with command-line control over the workload and decode placement, and with
// sciprep::obs wired up:
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
//   (plus a final-counter footer, see apps/digest_file.hpp); --expect-digest
//   cross-checks a resumed run's digests against an uninterrupted run's
//   file, which is how the kill_resume_smoke ctest proves the resume
//   property end to end.
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
//
// main() picks one mode per run: the unsharded pipeline (default), --ranks
// (shard), --serve, --serve-socket (wire server) or --connect (wire client).
// Each mode runs, prints its summary, writes and checks its digest file,
// writes the shared artifacts, validates, and returns its failure count.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sciprep/apps/digest_file.hpp"
#include "sciprep/apps/models.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
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
#include "sciprep/obs/json.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/resource.hpp"
#include "sciprep/obs/trace.hpp"
#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/serve/service.hpp"
#include "sciprep/shard/coordinator.hpp"
#include "sciprep/shard/digest.hpp"
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
  std::string metrics_jsonl;         // JSONL time-series ("" = off)
  std::string metrics_prom;          // Prometheus text file ("" = off)
  std::string report_out;            // BottleneckReport JSON ("" = off)
  std::string flightrec_dir;         // incident files directory ("" = off)
  // Shard: simulated multi-rank run with elastic recovery (sciprep::shard).
  int ranks = 0;                     // 0 = unsharded; N >= 1 = shard mode
  int kill_rank = -1;                // rank to kill mid-run (-1 = none)
  std::uint64_t kill_at_batch = 8;   // globally delivered batches before kill
  bool no_resharding = false;        // abort on rank loss, no elastic re-shard
  std::string checkpoint_dir;        // coordinated rank-<r>.ckpt directory
  // Serve: resident multi-tenant data service (sciprep::serve).
  bool serve = false;                // serve mode: N tenants on one service
  int tenants = 4;                   // concurrent tenant sessions
  int faulty_tenant = -1;            // tenant given the injector + policy
  int kill_tenant = -1;              // tenant whose consumer dies mid-epoch
  bool overload = false;             // shrink the byte budget below demand
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

  /// Every sample of every epoch: what exact-once accounting must reach.
  [[nodiscard]] std::uint64_t samples_total() const {
    return static_cast<std::uint64_t>(samples) *
           static_cast<std::uint64_t>(epochs);
  }

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
      "          [--fault-policy fail|skip|retry-skip]\n"
      "          [--checkpoint-out FILE] [--checkpoint-every N]\n"
      "          [--resume-from FILE] [--stage-deadline-ms MS]\n"
      "          [--digest-out FILE] [--expect-digest FILE]\n"
      "          [--kill-after-batches N]\n"
      "          [--metrics-interval-ms N] [--metrics-jsonl FILE]\n"
      "          [--metrics-prom FILE] [--report-out FILE]\n"
      "          [--flightrec-dir DIR]\n"
      "          [--ranks N] [--kill-rank R] [--kill-at-batch N]\n"
      "          [--no-resharding] [--checkpoint-dir DIR]\n"
      "          [--serve] [--tenants N] [--faulty-tenant T]\n"
      "          [--kill-tenant T] [--overload] [--lease-ms MS]\n"
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
  // Every flag and the field it sets. A bool flag takes no value and sets
  // its field; every other flag takes the next argument.
  using Field =
      std::variant<std::string*, int*, double*, std::uint64_t*, bool*>;
  const std::map<std::string_view, Field> flags = {
      {"--workload", &args.workload},
      {"--samples", &args.samples},
      {"--epochs", &args.epochs},
      {"--dim", &args.dim},
      {"--batch", &args.batch},
      {"--workers", &args.workers},
      {"--placement", &args.placement},
      {"--trace-out", &args.trace_out},
      {"--metrics-out", &args.metrics_out},
      {"--validate", &args.validate},
      {"--inject-transient", &args.inject_transient},
      {"--inject-corrupt", &args.inject_corrupt},
      {"--inject-truncate", &args.inject_truncate},
      {"--inject-delay", &args.inject_delay},
      {"--inject-delay-ms", &args.inject_delay_ms},
      {"--inject-seed", &args.inject_seed},
      {"--fault-policy", &args.fault_policy},
      {"--checkpoint-out", &args.checkpoint_out},
      {"--checkpoint-every", &args.checkpoint_every},
      {"--resume-from", &args.resume_from},
      {"--stage-deadline-ms", &args.stage_deadline_ms},
      {"--digest-out", &args.digest_out},
      {"--expect-digest", &args.expect_digest},
      {"--kill-after-batches", &args.kill_after_batches},
      {"--metrics-interval-ms", &args.metrics_interval_ms},
      {"--metrics-jsonl", &args.metrics_jsonl},
      {"--metrics-prom", &args.metrics_prom},
      {"--report-out", &args.report_out},
      {"--flightrec-dir", &args.flightrec_dir},
      {"--ranks", &args.ranks},
      {"--kill-rank", &args.kill_rank},
      {"--kill-at-batch", &args.kill_at_batch},
      {"--no-resharding", &args.no_resharding},
      {"--checkpoint-dir", &args.checkpoint_dir},
      {"--serve", &args.serve},
      {"--tenants", &args.tenants},
      {"--faulty-tenant", &args.faulty_tenant},
      {"--kill-tenant", &args.kill_tenant},
      {"--overload", &args.overload},
      {"--lease-ms", &args.lease_ms},
      {"--serve-socket", &args.serve_socket},
      {"--connect", &args.connect},
      {"--tenant-name", &args.tenant_name},
      {"--resumed", &args.expect_resumed},
      {"--inject-wire-corrupt", &args.inject_wire_corrupt},
      {"--inject-wire-drop", &args.inject_wire_drop},
      {"--trace-propagate", &args.trace_propagate},
      {"--flow-merge", &args.flow_merge_out},
      {"--fleet-out", &args.fleet_out},
      {"--throttle-wire-ms", &args.throttle_wire_ms},
  };
  for (int i = 1; i < argc; ++i) {
    const auto it = flags.find(argv[i]);
    if (it == flags.end()) {
      std::fprintf(stderr, "trainer: unknown flag '%s'\n", argv[i]);
      usage(argv[0]);
    }
    const Field& field = it->second;
    if (bool* const* flag = std::get_if<bool*>(&field)) {
      **flag = true;
      continue;
    }
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (std::string* const* f = std::get_if<std::string*>(&field)) {
      **f = value;
    } else if (int* const* f = std::get_if<int*>(&field)) {
      **f = std::atoi(value);
    } else if (double* const* f = std::get_if<double*>(&field)) {
      **f = std::atof(value);
    } else {
      *std::get<std::uint64_t*>(field) =
          static_cast<std::uint64_t>(std::atoll(value));
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

/// --kill-after-batches: once `delivered` batches are in, simulate a crash —
/// exit 42 with no flushing, no destructors, no atexit.
void crash_if_due(const TrainerArgs& args, std::uint64_t delivered) {
  if (args.kill_after_batches == 0 || delivered < args.kill_after_batches) {
    return;
  }
  std::printf("kill: simulating crash after batch %llu\n",
              static_cast<unsigned long long>(delivered));
  std::fflush(stdout);
  std::_Exit(42);
}

/// The run's data: the encoded dataset, the codec that decodes it, and the
/// workload's augmentation op (one op, so the pipeline.ops stage is
/// exercised). Ops are const and draw from the per-sample RNG the pipeline
/// hands them, so every pipeline of the run can share the one instance.
struct Workload {
  std::unique_ptr<codec::SampleCodec> codec;
  std::unique_ptr<pipeline::InMemoryDataset> dataset;
  std::shared_ptr<const pipeline::TensorOp> op;
};

Workload make_workload(const TrainerArgs& args) {
  Workload w;
  const auto n = static_cast<std::size_t>(args.samples);
  if (args.workload == "cosmo") {
    data::CosmoGenConfig gen_cfg;
    gen_cfg.dim = args.dim;
    gen_cfg.seed = 2022;
    w.codec = std::make_unique<codec::CosmoCodec>();
    w.dataset = std::make_unique<pipeline::InMemoryDataset>(
        pipeline::InMemoryDataset::make_cosmo(
            data::CosmoGenerator(gen_cfg), n,
            pipeline::StorageFormat::kEncoded, w.codec.get()));
    w.op = std::make_shared<pipeline::ScaleOp>(1.0F);
  } else {
    data::CamGenConfig gen_cfg;
    gen_cfg.height = args.dim;
    gen_cfg.width = args.dim;
    gen_cfg.channels = 4;
    gen_cfg.seed = 2022;
    w.codec = std::make_unique<codec::CamCodec>();
    w.dataset = std::make_unique<pipeline::InMemoryDataset>(
        pipeline::InMemoryDataset::make_cam(
            data::CamGenerator(gen_cfg), n, pipeline::StorageFormat::kEncoded,
            w.codec.get()));
    w.op = std::make_shared<pipeline::RandomFlipX>();
  }
  std::printf("dataset: %zu encoded %s samples, %s at rest\n",
              w.dataset->size(), args.workload.c_str(),
              format_bytes(w.dataset->total_bytes()).c_str());
  return w;
}

/// One pipeline's config: batch size, shuffle seed, decode placement and the
/// workload's op. A `faulty` pipeline also gets the fault policy, the
/// injector (when injecting) and the guard deadlines: one for every
/// decode-path stage, and 8x for the end-to-end prefetch wait, which covers a
/// whole batch of samples, not one.
pipeline::PipelineConfig make_pipeline_config(const TrainerArgs& args,
                                              const Workload& workload,
                                              fault::Injector& injector,
                                              std::uint64_t seed,
                                              bool faulty) {
  pipeline::PipelineConfig pcfg;
  pcfg.batch_size = args.batch;
  pcfg.worker_threads = args.workers;
  pcfg.seed = seed;
  pcfg.decode_placement = args.placement == "gpu" ? codec::Placement::kGpu
                                                  : codec::Placement::kCpu;
  pcfg.ops.push_back(workload.op);
  if (!faulty) return pcfg;
  fault::FaultPolicy& policy = pcfg.fault_policy;  // default: kFail everywhere
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
  // Drills run to the end: --validate accounts for every skip, so the
  // library's bounded default budget would only cut a long drill short.
  policy.error_budget = 1u << 20;
  pcfg.injector = args.injecting() ? &injector : nullptr;
  if (args.stage_deadline_ms > 0) {
    const double s = args.stage_deadline_ms / 1e3;
    pcfg.deadlines.decode_seconds = s;
    pcfg.deadlines.gunzip_seconds = s;
    pcfg.deadlines.io_read_seconds = s;
    pcfg.deadlines.prefetch_wait_seconds = 8 * s;
  }
  return pcfg;
}

/// Write `digest` to `out` and check it against the file `expect` (either
/// step is skipped when its path is empty). A run resumed from a checkpoint
/// produces a suffix of the expected lines. Returns the violations (0 =
/// clean).
int finish_digest(const apps::DigestFile& digest, const std::string& out,
                  const std::string& expect, bool resumed = false) {
  if (!out.empty()) {
    digest.write(out);
    std::printf("digest: %zu lines -> %s\n", digest.lines.size(),
                out.c_str());
  }
  if (expect.empty()) return 0;
  const std::vector<std::string> failures =
      digest.check(apps::DigestFile::read(expect), resumed);
  for (const std::string& what : failures) {
    std::fprintf(stderr, "digest: FAIL %s\n", what.c_str());
  }
  if (failures.empty()) {
    std::printf("digest: OK — %zu lines bit-identical to %s, footers agree\n",
                digest.lines.size(), expect.c_str());
  }
  return static_cast<int>(failures.size());
}

/// What every mode shares: the flags, the injector, the flight recorder and
/// the continuous exporter, plus the wall clock of the run itself.
struct RunContext {
  const TrainerArgs& args;
  fault::Injector& injector;
  insight::FlightRecorder* recorder = nullptr;
  insight::ContinuousExporter* exporter = nullptr;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  double wall_seconds = 0;

  /// A listener that prints events of `kinds` as "<prefix>: [scope] detail"
  /// and forwards every event to the flight recorder.
  [[nodiscard]] fault::RecoveryListener announce(
      const char* prefix, std::vector<fault::EventKind> kinds) const {
    fault::RecoveryListener forward =
        recorder != nullptr ? recorder->listener() : fault::RecoveryListener{};
    return [prefix, kinds = std::move(kinds),
            forward](const fault::RecoveryEvent& event) {
      if (std::find(kinds.begin(), kinds.end(), event.kind) != kinds.end()) {
        std::printf("%s: [%s] %s\n", prefix, event.scope.c_str(),
                    event.detail.c_str());
      }
      if (forward) forward(event);
    };
  }

  /// The run is over: stop the exporter (its final flush covers the partial
  /// interval) and take the wall time the analyzer divides by.
  void end_run() {
    wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (exporter != nullptr) exporter->stop();
  }

  /// The artifacts every mode shares: the human metrics table, --trace-out,
  /// --metrics-out and --report-out. A traced wire client passes the
  /// server's accumulated deltas, which let the analyzer split client wait
  /// into queue/encode/send/socket stages.
  void write_artifacts(const obs::MetricsSnapshot* server_metrics = nullptr) {
    std::printf("\n%s", obs::MetricsRegistry::global().human_dump().c_str());
    if (!args.trace_out.empty()) {
      obs::Tracer::global().write_chrome_json(args.trace_out);
      std::printf("trace: %zu spans -> %s\n", obs::Tracer::global().size(),
                  args.trace_out.c_str());
    }
    if (!args.metrics_out.empty()) {
      obs::MetricsRegistry::global().write_json(args.metrics_out);
      std::printf("metrics: -> %s\n", args.metrics_out.c_str());
    }
    if (!args.report_out.empty()) {
      insight::AnalyzerInput input;
      input.wall_seconds = wall_seconds;
      input.workers = args.workers;
      input.server_metrics = server_metrics;
      const insight::BottleneckReport report =
          insight::analyze_critical_path(input);
      insight::write_report(args.report_out, report);
      std::printf("\n%s", report.human_table().c_str());
      std::printf("report: -> %s\n", args.report_out.c_str());
    }
    if (exporter != nullptr) {
      std::printf("metrics ticks: %llu -> %s\n",
                  static_cast<unsigned long long>(exporter->ticks_total()),
                  (args.metrics_jsonl.empty() ? args.metrics_prom
                                              : args.metrics_jsonl)
                      .c_str());
    }
    if (recorder != nullptr) {
      std::printf(
          "flightrec: %llu incidents written, %llu suppressed -> %s\n",
          static_cast<unsigned long long>(recorder->incidents_written()),
          static_cast<unsigned long long>(recorder->incidents_suppressed()),
          args.flightrec_dir.c_str());
    }
  }
};

/// Counts --validate violations, printing each one as it is found.
struct Checker {
  int failures = 0;
  void operator()(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "validate: FAIL %s\n", what.c_str());
    ++failures;
  }
  /// Print "<label>: OK" on a clean pass; returns the violation count.
  int done(const char* label) const {
    if (failures == 0) std::printf("%s: OK\n", label);
    return failures;
  }
};

/// The pipeline counters of an unsharded or sharded run, plus the recovery
/// tally when a fault was handled.
void print_pipeline_summary(const pipeline::PipelineStats& stats,
                            const fault::Injector& injector,
                            std::size_t quarantined) {
  std::printf(
      "\npipeline: %llu samples in %llu batches (%s at rest), "
      "decode cpu %.1f ms / gpu %.1f ms\n",
      static_cast<unsigned long long>(stats.samples),
      static_cast<unsigned long long>(stats.batches),
      format_bytes(stats.bytes_at_rest).c_str(),
      stats.decode_cpu_seconds * 1e3, stats.decode_gpu_seconds * 1e3);
  if (stats.degraded) {
    std::printf(
        "faults: %llu injected; %llu retries, %llu skipped "
        "(%zu unique quarantined ids), %llu fallbacks — degraded mode\n",
        static_cast<unsigned long long>(injector.injected_total()),
        static_cast<unsigned long long>(stats.retries),
        static_cast<unsigned long long>(stats.samples_skipped), quarantined,
        static_cast<unsigned long long>(stats.fallbacks));
  }
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
  check(stats.samples + stats.samples_skipped == args.samples_total(),
        fmt("samples {} + skipped {} == dataset size x epochs {}",
            stats.samples, stats.samples_skipped, args.samples_total()));
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
  check(stats.bytes_at_rest ==
            reg.counter_value("pipeline.bytes_at_rest_total"),
        "stats.bytes_at_rest matches pipeline.bytes_at_rest_total");
  if (args.placement == "gpu") {
    check(stats.gpu.warps == reg.counter_value("pipeline.gpu.warps_total"),
          "stats.gpu.warps matches pipeline.gpu.warps_total");
    check(stats.decode_cpu_seconds == 0.0,
          "GPU placement leaves decode_cpu_seconds at zero");
  }
  return check.done("validate");
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
    // The ResourceSampler publishes on the exporter cadence, so every run's
    // time-series must carry the proc.* gauges — a missing key means the
    // pre_tick hook fell off the exporter.
    check(saw_rss, "JSONL time-series carries the proc.rss_bytes gauge");
    check(saw_cpu, "JSONL time-series carries the proc.cpu_utime_ms gauge");
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

  return check.done("validate(insight)");
}

/// Per-run guard driver for the unsharded run: resume, per-batch content
/// digests, periodic checkpoints, and the simulated crash.
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

  [[nodiscard]] bool resumed() const { return resumed_; }

  /// Called once per delivered batch, before the train step: record the
  /// batch's content CRC (every sample's shape, values and labels, chained —
  /// two runs agree iff their delivered batches are bit-identical,
  /// augmentations included), checkpoint if the cadence says so, and crash
  /// if asked to.
  void on_batch(pipeline::DataPipeline& pipe, const pipeline::Batch& batch) {
    ++delivered_;
    std::uint32_t crc = 0;
    for (const auto& t : batch.samples) crc = shard::sample_crc(t, crc);
    digest.add("B", batch.epoch, batch.index_in_epoch, crc);
    if (checkpointer_ && checkpointer_->due(delivered_)) {
      checkpointer_->write(pipe.snapshot());
    }
    // The next run has only the (atomically written) checkpoint to go on.
    crash_if_due(args_, delivered_);
  }

  apps::DigestFile digest;

 private:
  const TrainerArgs& args_;
  std::optional<guard::Checkpointer> checkpointer_;
  std::uint64_t delivered_ = 0;
  bool resumed_ = false;
};

/// The unsharded run: encoded dataset -> pipeline -> the tiny 3D-conv
/// CosmoFlow model. DeepCAM is a decode-only batch pump: the paper's DeepCAM
/// evaluation is loader-bound, and the model step adds nothing to the
/// observability surface being exercised here.
int run_pipeline(RunContext& ctx) {
  const TrainerArgs& args = ctx.args;
  sim::SimGpu gpu({.sm_count = 80, .warps_per_sm = 8});
  RunGuard rg(args);
  pipeline::PipelineStats stats;
  std::vector<std::size_t> quarantine;
  std::uint64_t fingerprint = 0;
  {
    const Workload workload = make_workload(args);
    pipeline::PipelineConfig pcfg =
        make_pipeline_config(args, workload, ctx.injector, 7, true);
    pcfg.metrics = &obs::MetricsRegistry::global();
    if (ctx.recorder != nullptr) {
      pcfg.on_recovery_event = ctx.recorder->listener();
    }
    pipeline::DataPipeline pipe(*workload.dataset, *workload.codec, pcfg,
                                pcfg.decode_placement == codec::Placement::kGpu
                                    ? &gpu
                                    : nullptr);
    fingerprint = pipe.config_fingerprint();
    if (ctx.recorder != nullptr) {
      ctx.recorder->set_config_fingerprint(fingerprint);
    }

    std::unique_ptr<dnn::Sequential> model;
    std::optional<dnn::Sgd> optimizer;
    if (args.workload == "cosmo") {
      Rng rng(11);
      model = apps::build_cosmoflow_model(args.dim, rng);
      optimizer.emplace(*model, dnn::SgdConfig{.learning_rate = 0.02F,
                                               .momentum = 0.9F,
                                               .weight_decay = 0.0F,
                                               .warmup_steps = 4,
                                               .decay_every = 0});
    }

    const int first_epoch = rg.begin(pipe);
    for (int epoch = first_epoch; epoch < args.epochs; ++epoch) {
      if (epoch > first_epoch || !rg.resumed()) {
        pipe.start_epoch(static_cast<std::uint64_t>(epoch));
      }
      double epoch_loss = 0;
      std::size_t steps = 0;
      pipeline::Batch batch;
      while (pipe.next_batch(batch)) {
        rg.on_batch(pipe, batch);
        ++steps;
        if (!model) continue;
        double batch_loss = 0;
        for (const auto& tensor : batch.samples) {
          const dnn::Tensor input = apps::cosmo_input_from_fp16(tensor);
          const dnn::Tensor pred = model->forward(input);
          const auto loss = dnn::mse_loss(pred, tensor.float_labels);
          model->backward(loss.grad);
          batch_loss += loss.loss;
        }
        optimizer->step(static_cast<float>(batch.size()));
        epoch_loss += batch_loss / batch.size();
      }
      if (model) {
        std::printf("epoch %d: mean loss %.5f (%zu steps)\n", epoch,
                    steps > 0 ? epoch_loss / static_cast<double>(steps) : 0.0,
                    steps);
      } else {
        std::printf("epoch %d: %zu batches decoded\n", epoch, steps);
      }
    }
    stats = pipe.stats();
    quarantine = pipe.quarantine();
  }
  ctx.end_run();
  print_pipeline_summary(stats, ctx.injector, quarantine.size());

  // The footer excludes the live retry counter by contract: retries are
  // spent wall clock, and a resumed run legitimately repeats some.
  rg.digest.footer =
      fmt("T samples {} batches {} bytes {} skipped {} fallbacks {} "
          "qcrc {:08x}",
          stats.samples, stats.batches, stats.bytes_at_rest,
          stats.samples_skipped, stats.fallbacks,
          crc32c(as_bytes(quarantine)));
  int failures = finish_digest(rg.digest, args.digest_out, args.expect_digest,
                               rg.resumed());
  ctx.write_artifacts();
  if (args.validate) {
    failures += validate_outputs(args, stats, quarantine);
    failures += validate_insight(args, fingerprint);
  }
  return failures;
}

/// Shard-mode outcome, handed to the validator.
struct ShardRunResult {
  shard::ShardStats stats;
  std::uint32_t stream_digest = 0;
  apps::DigestFile digest;  // "S <epoch> <pos> <crc>"
  bool killed = false;
};

/// --validate for shard mode: exact-once accounting across the world, the
/// digest covering every delivered sample, and the failure bookkeeping.
int validate_shard(const TrainerArgs& args, const ShardRunResult& run) {
  Checker check;
  check(run.stats.totals.samples + run.stats.totals.samples_skipped ==
            args.samples_total(),
        fmt("samples {} + skipped {} == dataset size x epochs {} "
            "(exact-once across the world)",
            run.stats.totals.samples, run.stats.totals.samples_skipped,
            args.samples_total()));
  check(run.digest.lines.size() == run.stats.totals.samples,
        fmt("digest covers every delivered sample exactly once ({} vs {})",
            run.digest.lines.size(), run.stats.totals.samples));
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
  return check.done("validate(shard)");
}

/// The sharded run (sciprep::shard, DESIGN.md §12): N simulated ranks
/// deliver a deterministic global shuffle; --kill-rank injects a mid-epoch
/// rank death whose shard is elastically redistributed. The merged stream is
/// digest-verified — the "S" lines are emitted from the coordinator's
/// position-keyed digest at the END of the run, so a killed-and-recovered
/// run writes the byte-identical digest file a healthy run does.
int run_shard(RunContext& ctx) {
  const TrainerArgs& args = ctx.args;
  ShardRunResult run;
  {
    const Workload workload = make_workload(args);
    shard::ShardConfig scfg;
    scfg.world = args.ranks;
    scfg.pipeline = make_pipeline_config(args, workload, ctx.injector, 7, true);
    scfg.elastic = !args.no_resharding;
    scfg.checkpoint_every_batches = args.checkpoint_every;
    scfg.checkpoint_dir = args.checkpoint_dir;
    scfg.verify_stream = true;  // shard mode exists to prove the stream digest
    scfg.metrics = &obs::MetricsRegistry::global();
    if (scfg.pipeline.decode_placement == codec::Placement::kGpu) {
      scfg.gpu_factory = [](int /*rank*/) {
        return std::make_unique<sim::SimGpu>(
            sim::SimGpu::Config{.sm_count = 80, .warps_per_sm = 8});
      };
    }
    scfg.on_event = ctx.announce(
        "shard", {fault::EventKind::kRankLost, fault::EventKind::kReshard});

    shard::ShardCoordinator coordinator(*workload.dataset, *workload.codec,
                                        std::move(scfg));
    if (ctx.recorder != nullptr) {
      ctx.recorder->set_config_fingerprint(coordinator.config_fingerprint());
    }

    std::uint64_t delivered = 0;
    for (int epoch = 0; epoch < args.epochs; ++epoch) {
      if (epoch > 0) coordinator.start_epoch(static_cast<std::uint64_t>(epoch));
      shard::ShardBatch sb;
      std::size_t steps = 0;
      while (coordinator.step(sb)) {
        ++steps;
        ++delivered;
        if (args.kill_rank >= 0 && !run.killed &&
            delivered >= args.kill_at_batch) {
          std::printf("shard: killing rank %d after global batch %llu\n",
                      args.kill_rank,
                      static_cast<unsigned long long>(delivered));
          coordinator.kill_rank(args.kill_rank);
          run.killed = true;
        }
      }
      std::printf("epoch %d: %zu batches across %d live rank(s)\n", epoch,
                  steps, coordinator.alive_count());
    }
    run.stats = coordinator.aggregate();
    run.stream_digest = coordinator.digest().stream_digest();
    run.digest.add_stream("S", coordinator.digest(), args.epochs);
  }
  ctx.end_run();
  print_pipeline_summary(run.stats.totals, ctx.injector, 0);
  std::printf(
      "shard: world %d, %d alive; %llu lost, %llu reshards "
      "(%llu samples redistributed), %llu checkpoints; stream %08x\n",
      run.stats.world, run.stats.alive,
      static_cast<unsigned long long>(run.stats.ranks_lost),
      static_cast<unsigned long long>(run.stats.reshards),
      static_cast<unsigned long long>(run.stats.resharded_samples),
      static_cast<unsigned long long>(run.stats.checkpoints),
      run.stream_digest);

  // The footer holds only rank-count-invariant counters: batch counts and
  // retries legitimately differ across worlds; delivered samples, bytes, and
  // skips may not.
  const pipeline::PipelineStats& totals = run.stats.totals;
  run.digest.footer = fmt("T samples {} bytes {} skipped {} stream {:08x}",
                          totals.samples, totals.bytes_at_rest,
                          totals.samples_skipped, run.stream_digest);
  int failures = finish_digest(run.digest, args.digest_out, args.expect_digest);
  ctx.write_artifacts();
  // Per-rank pipeline metrics live in private registries, so the unsharded
  // registry cross-checks don't apply; the shard validator covers
  // exact-once accounting and digest coverage instead.
  if (args.validate) failures += validate_shard(args, run);
  return failures;
}

/// A tenant's stream as "U" lines plus its footer. The server's and the
/// consuming client's views of one tenant produce the same bytes, so
/// wire_chaos_smoke can cmp(1) the two files.
apps::DigestFile tenant_digest(const shard::GlobalStreamDigest& stream,
                               int epochs) {
  apps::DigestFile file;
  file.add_stream("U", stream, epochs);
  file.footer = fmt("T samples {} stream {:08x}", file.lines.size(),
                    stream.stream_digest());
  return file;
}

/// One tenant's outcome in a serve-mode or wire-server run.
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
  apps::DigestFile digest;             // "U <epoch> <pos> <crc>"
  wire::TenantWireStats wire;          // wire server only
};

/// Harvest `tr`'s end state and stream digest before the service (and with
/// it every tenant registry and digest) goes away.
void harvest_tenant(const serve::DataService& service, int epochs,
                    ServeTenantResult& tr) {
  tr.state = service.session_state(tr.session);
  tr.stream = service.digest(tr.session).stream_digest();
  tr.digest = tenant_digest(service.digest(tr.session), epochs);
}

/// The end of a serve-mode or wire-server run: the roster summary (`tally`
/// is the mode's own count), one digest file per tenant that ran, named
/// <digest_out>.tenant<t> — the chaos smokes compare these byte-for-byte
/// across fault-free and chaos runs to prove isolation and reattach
/// bit-identity — and the shared artifacts.
void finish_tenants(RunContext& ctx,
                    const std::vector<ServeTenantResult>& tenants,
                    const char* mode, const std::string& tally) {
  ctx.end_run();
  unsigned long long samples = 0;
  unsigned long long batches = 0;
  for (const ServeTenantResult& tr : tenants) {
    samples += tr.samples;
    batches += tr.batches;
  }
  std::printf("\n%s: %llu samples in %llu batches across %zu tenant(s), %s\n",
              mode, samples, batches, tenants.size(), tally.c_str());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].session < 0 || ctx.args.digest_out.empty()) continue;
    finish_digest(tenants[t].digest,
                  fmt("{}.tenant{}", ctx.args.digest_out, t), "");
  }
  ctx.write_artifacts();
}

/// Serve-mode outcome, handed to the validator.
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

  void count(serve::Admission admission) {
    ++(admission == serve::Admission::kAdmitted   ? expected_admitted
       : admission == serve::Admission::kDegraded ? expected_degraded
                                                  : expected_rejected);
  }
};

/// The resident DataService over `w`, built from the trainer flags. Shared
/// between the in-process serve drill and the wire server.
std::unique_ptr<serve::DataService> make_service(const RunContext& ctx,
                                                 const Workload& w) {
  const TrainerArgs& args = ctx.args;
  if (args.placement == "gpu") {
    std::printf("serve: forcing cpu decode (tenant pipelines share workers, "
                "not a SimGpu)\n");
  }

  // The overload budget is expressed in full-session charges: what one
  // in-flight decoded sample costs resident, as the service itself probes it
  // (see DataService::probe_sample_bytes).
  const std::uint64_t probe_bytes =
      serve::tensor_bytes(w.codec->decode_cpu(w.dataset->sample(0)));
  const std::uint64_t full_charge =
      static_cast<std::uint64_t>(args.batch) * probe_bytes * 2;

  serve::ServiceConfig scfg;
  scfg.verify_stream = true;  // the drill exists to prove per-tenant digests
  scfg.worker_threads = args.workers;
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
  scfg.on_event = ctx.announce("serve", {fault::EventKind::kTenantLost,
                                         fault::EventKind::kTenantEvicted,
                                         fault::EventKind::kSessionShed});
  return std::make_unique<serve::DataService>(*w.dataset, *w.codec,
                                              std::move(scfg), nullptr);
}

/// Tenant `t`'s spec, identical between the in-process serve drill and the
/// wire server — the per-tenant stream is defined by the spec, not by which
/// side of a socket the consumer sits on. Only --faulty-tenant gets the
/// injector, fault policy, and stage deadlines.
serve::TenantSpec make_tenant_spec(const RunContext& ctx,
                                   const Workload& workload, int t) {
  serve::TenantSpec spec;
  spec.name = fmt("tenant{}", t);
  spec.epochs = static_cast<std::uint64_t>(ctx.args.epochs);
  spec.weight = 1 + static_cast<std::uint32_t>(t % 2);
  spec.pipeline =
      make_pipeline_config(ctx.args, workload, ctx.injector,
                           7 + static_cast<std::uint64_t>(t),
                           t == ctx.args.faulty_tenant);
  spec.pipeline.decode_placement = codec::Placement::kCpu;
  return spec;
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

  for (std::size_t t = 0; t < run.tenants.size(); ++t) {
    const ServeTenantResult& tr = run.tenants[t];
    if (tr.session < 0 || tr.evicted) continue;
    check(tr.state == serve::SessionState::kClosed,
          fmt("tenant{} reached a clean close (state: {})", t,
              serve::session_state_name(tr.state)));
    check(tr.samples + tr.skipped == args.samples_total(),
          fmt("tenant{}: samples {} + skipped {} == dataset size x epochs {} "
              "(exact-once per tenant)",
              t, tr.samples, tr.skipped, args.samples_total()));
    check(tr.digest.lines.size() == tr.samples,
          fmt("tenant{}: digest covers every delivered sample ({} vs {})", t,
              tr.digest.lines.size(), tr.samples));
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
  return check.done("validate(serve)");
}

/// The serve drill (sciprep::serve, DESIGN.md §13): one resident
/// DataService, N tenant sessions with distinct shuffle seeds multiplexed on
/// the shared pool + cache, driven round-robin by one consumer. Drills:
/// --faulty-tenant T gives exactly one tenant the injector, fault policy, and
/// stage deadlines; --kill-tenant T simulates a consumer death (the drill
/// stops calling next_batch) that is lease-swept, checkpointed, reattached,
/// and completed bit-identically; --overload shrinks the in-flight byte
/// budget below aggregate demand so admissions shed deterministically.
int run_serve(RunContext& ctx) {
  const TrainerArgs& args = ctx.args;
  ServeRunResult out;
  {
    const Workload workload = make_workload(args);
    const auto owned = make_service(ctx, workload);
    serve::DataService& service = *owned;

    out.tenants.resize(static_cast<std::size_t>(args.tenants));
    std::vector<bool> done(static_cast<std::size_t>(args.tenants), false);
    int live = 0;
    for (int t = 0; t < args.tenants; ++t) {
      ServeTenantResult& tr = out.tenants[static_cast<std::size_t>(t)];
      tr.name = fmt("tenant{}", t);
      tr.faulty = t == args.faulty_tenant;

      const serve::DataService::OpenResult open =
          service.open_session(make_tenant_spec(ctx, workload, t));
      tr.session = open.session;
      tr.admission = open.admission;
      out.count(open.admission);
      done[static_cast<std::size_t>(t)] = open.session < 0;
      live += open.session < 0 ? 0 : 1;
      std::printf("serve: tenant%d %s (seed %llu, weight %u)\n", t,
                  serve::admission_name(open.admission),
                  static_cast<unsigned long long>(7 + t), 1 + t % 2);
    }

    // Round-robin consumer: one batch per live tenant per turn, so every
    // tenant's lease stays beaten and the shared pool sees genuinely
    // interleaved fan-outs. --kill-tenant stops consuming (the session stays
    // formally active — exactly what a crashed consumer looks like).
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
          if (service.next_batch(tr.session, batch)) {
            ++tr.batches;
          } else {
            service.close_session(tr.session);
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
      out.count(re.admission);
      if (re.admission != serve::Admission::kRejected) {
        ++out.expected_reattached;
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
      harvest_tenant(service, args.epochs, tr);
      const obs::MetricsRegistry& reg = service.tenant_metrics(tr.session);
      tr.samples = reg.counter_value("pipeline.samples_total");
      tr.skipped = reg.counter_value("pipeline.samples_skipped_total");
      tr.deadline_expired = reg.counter_value("guard.deadline_expired_total");
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
  finish_tenants(ctx, out.tenants, "serve",
                 fmt("{} cache hits", out.cache_hits));
  // Tenant pipelines run on private registries, so the unsharded registry
  // cross-checks don't apply; the serve validator covers per-tenant
  // exact-once accounting, counter reconciliation, and service convergence
  // instead.
  return args.validate ? validate_serve(args, out) : 0;
}

/// Wire-server outcome: the serve harvest plus transport accounting.
struct WireServerRunResult {
  bool all_detached = false;
  std::uint64_t sweeps = 0;
  std::vector<ServeTenantResult> tenants;
};

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
  for (std::size_t t = 0; t < run.tenants.size(); ++t) {
    const ServeTenantResult& tr = run.tenants[t];
    attaches += tr.wire.attaches;
    resends += tr.wire.resends;
    check(tr.session >= 0, fmt("tenant{} was attached at least once", t));
    if (tr.session < 0) continue;
    check(tr.wire.detached, fmt("tenant{} detached cleanly", t));
    check(tr.state == serve::SessionState::kClosed,
          fmt("tenant{} reached a clean close (state: {})", t,
              serve::session_state_name(tr.state)));
    if (!tr.faulty) {
      check(tr.samples == args.samples_total(),
            fmt("tenant{}: {} samples served over the wire == dataset size x "
                "epochs {} (exact-once per tenant)",
                t, tr.samples, args.samples_total()));
    }
    check(tr.digest.lines.size() == tr.samples,
          fmt("tenant{}: digest covers every served sample ({} vs {})", t,
              tr.digest.lines.size(), tr.samples));
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
  return check.done("validate(wire-server)");
}

/// The wire server (--serve-socket, DESIGN.md §14): the serve
/// drill's resident DataService fronted by a WireServer on an AF_UNIX
/// socket, with every consumer a separate process. The server registers the
/// same tenant specs the in-process drill would open, serves until every
/// tenant has cleanly detached (or the deadline passes), and harvests the
/// same per-tenant digests — so digest files from a socket-served run can be
/// byte-compared against an in-process run. --inject-wire-corrupt /
/// --inject-wire-drop arm the transport fault sites.
int run_wire_server(RunContext& ctx) {
  const TrainerArgs& args = ctx.args;
  WireServerRunResult out;
  {
    const Workload workload = make_workload(args);
    const auto owned = make_service(ctx, workload);
    serve::DataService& service = *owned;

    std::vector<serve::TenantSpec> tenants;
    tenants.reserve(static_cast<std::size_t>(args.tenants));
    for (int t = 0; t < args.tenants; ++t) {
      tenants.push_back(make_tenant_spec(ctx, workload, t));
    }

    wire::WireServerConfig wcfg;
    wcfg.socket_path = args.serve_socket;
    // Short enough that stop() and lease sweeps never wait long on an idle
    // connection, long enough that a healthy client never times out a request.
    wcfg.request_timeout_seconds = 2.0;
    wcfg.throttle_send_seconds = args.throttle_wire_ms / 1e3;
    if (args.throttle_wire_ms > 0) {
      std::printf("wire: throttling every reply by %.1f ms\n",
                  args.throttle_wire_ms);
    }
    if (args.inject_wire_corrupt > 0 || args.inject_wire_drop > 0) {
      wcfg.injector = &ctx.injector;
      std::printf(
          "wire: injecting frame corruption %.2f%% + connection drops %.2f%% "
          "(seed %llu)\n",
          args.inject_wire_corrupt * 100, args.inject_wire_drop * 100,
          static_cast<unsigned long long>(args.inject_seed));
    }
    wcfg.on_event = ctx.announce("wire", {fault::EventKind::kWireFault});

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
    for (int t = 0; t < args.tenants; ++t) {
      ServeTenantResult& tr = out.tenants[static_cast<std::size_t>(t)];
      tr.name = fmt("tenant{}", t);
      tr.faulty = t == args.faulty_tenant;
      tr.session = server.tenant_session(tr.name);
      if (tr.session < 0) continue;  // never attached
      const wire::TenantWireStats& ws = tr.wire =
          server.tenant_stats(tr.name);
      tr.admission = service.session_admission(tr.session);
      harvest_tenant(service, args.epochs, tr);
      tr.batches = ws.batches;
      tr.samples = ws.samples;
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
  finish_tenants(ctx, out.tenants, "wire",
                 fmt("{} lease sweep(s)", out.sweeps));
  return args.validate ? validate_wire_server(args, out) : 0;
}

/// Wire-client outcome.
struct WireClientRunResult {
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  bool resumed = false;
  wire::WireClientStats stats;
  wire::DetachedPayload server_stats;
  std::uint32_t stream = 0;  // this process's delivered-stream digest
  apps::DigestFile digest;
  // sciprep::flow state (populated when --trace-propagate is on).
  std::uint64_t trace_id = 0;
  flow::ClockOffset clock_offset;
  wire::TracePayload server_trace;    // server span ring + identity
  obs::MetricsSnapshot server_totals; // the last STATS line's tenant totals
  std::string server_scope;           // "tenant/<name>" per the server
  std::string fleet_jsonl;            // fleet.v1 lines for --fleet-out
};

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

  sysio::write_file(args.flow_merge_out,
                    as_bytes(flow::merge_chrome_json(procs)));
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
  return check.done("validate(flow)");
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
  check(run.digest.lines.size() == run.samples,
        fmt("digest covers every delivered sample ({} vs {})",
            run.digest.lines.size(), run.samples));
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
    check(run.samples == args.samples_total(),
          fmt("{} samples delivered == dataset size x epochs {} "
              "(exactly-once)",
              run.samples, args.samples_total()));
    check(run.stream == run.server_stats.digest_crc,
          fmt("client and server stream digests agree ({:08x} vs {:08x})",
              run.stream, run.server_stats.digest_crc));
  }
  return check.done("validate(wire-client)");
}

/// The wire client (--connect --tenant-name): attach to a wire
/// server, consume the tenant's whole stream, detach. --kill-after-batches
/// simulates a consumer crash (exit 42, no cleanup — the server's lease
/// sweep must notice); a replacement process passes --resumed and takes the
/// stream over from where the server says it stands.
int run_wire_client(RunContext& ctx) {
  const TrainerArgs& args = ctx.args;
  WireClientRunResult out;
  {
    wire::WireClientConfig ccfg;
    ccfg.socket_path = args.connect;
    ccfg.tenant = args.tenant_name;
    ccfg.request_timeout_seconds = 5.0;
    ccfg.trace_propagate = args.trace_propagate;
    if (args.trace_propagate) {
      // Name this process's track in merged traces by the tenant it consumes.
      obs::Tracer::global().set_process_name(
          fmt("trainer-{}", args.tenant_name));
    }
    wire::WireClient client(ccfg);
    client.attach();
    out.resumed = client.resumed();
    std::printf("wire: attached '%s' (session %d%s%s)\n",
                args.tenant_name.c_str(), client.server_session(),
                client.resumed() ? ", resumed" : "",
                client.degraded() ? ", degraded" : "");

    // One STATS pull = one fleet.v1 line: the server's per-tenant totals and
    // delta since the previous pull, renumbered into this file's series and
    // stamped with this process's run clock.
    auto pull_fleet_line = [&]() {
      const obs::FleetLine pulled = client.pull_server_stats();
      out.fleet_jsonl += obs::fleet_line(
          pulled.scope, client.stats_pulls(),
          static_cast<double>(obs::Tracer::global().now_ns()) / 1e9,
          pulled.totals, pulled.delta);
      out.fleet_jsonl += '\n';
    };

    pipeline::Batch batch;
    while (client.next(batch)) {
      ++out.batches;
      out.samples += batch.samples.size();
      if (!args.fleet_out.empty() && out.batches % 16 == 0) pull_fleet_line();
      // A crashed consumer sends no DETACH and closes nothing: the server
      // finds out the hard way (EOF, then a lease sweep).
      crash_if_due(args, out.batches);
    }
    if (args.trace_propagate) {
      // Final pulls before DETACH tears the session down: the closing STATS
      // line completes the fleet series (sum of deltas == the server's tenant
      // totals), and the TRACE pull captures the server-side spans for this
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
    out.stream = client.digest().stream_digest();
    out.digest = tenant_digest(client.digest(), args.epochs);
  }
  ctx.end_run();
  std::printf(
      "\nwire: '%s' done — %llu batches, %llu samples, %llu attach(es), "
      "%llu reconnect(s), %llu corrupt frame(s), stream %08x\n",
      args.tenant_name.c_str(), static_cast<unsigned long long>(out.batches),
      static_cast<unsigned long long>(out.samples),
      static_cast<unsigned long long>(out.stats.attaches),
      static_cast<unsigned long long>(out.stats.reconnects),
      static_cast<unsigned long long>(out.stats.corrupt_frames), out.stream);
  int failures = finish_digest(out.digest, args.digest_out, args.expect_digest);
  if (args.trace_propagate) finish_flow(args, out);
  ctx.write_artifacts(args.trace_propagate ? &out.server_totals : nullptr);
  if (args.validate) {
    failures += validate_wire_client(args, out);
    if (args.trace_propagate) failures += validate_flow_client(args, out);
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const TrainerArgs args = parse_args(argc, argv);
  set_thread_name("consumer");  // labels the training loop in traces/incidents
  if (!args.trace_out.empty()) {
    obs::Tracer::global().set_enabled(true);
  }

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
    sampler.emplace();
    ecfg.pre_tick = sampler->exporter_hook();
    exporter.emplace(std::move(ecfg));
    exporter->start();
  }

  int (*const mode)(RunContext&) = args.wire_server()   ? run_wire_server
                                   : args.wire_client() ? run_wire_client
                                   : args.serve         ? run_serve
                                   : args.sharded()     ? run_shard
                                                        : run_pipeline;
  RunContext ctx{args, injector, recorder ? &*recorder : nullptr,
                 exporter ? &*exporter : nullptr};
  try {
    return mode(ctx) == 0 ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "trainer: %s\n", e.what());
    return 1;
  }
}
