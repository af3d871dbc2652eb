// fleetview — fleet-level telemetry federation (DESIGN.md §15).
//
// Merges N per-scope `sciprep.flow.fleet.v1` metrics time-series — written
// by traced wire clients (--fleet-out) and by the insight exporter
// (--metrics-jsonl) — into one time-ordered fleet.v1 series plus an
// aggregated Prometheus text body with a {scope="..."} label per source and
// an unlabelled fleet-wide sum:
//
//   fleetview tenant0.fleet.jsonl tenant1.fleet.jsonl
//       --scope rank0 rank0.metrics.jsonl
//       --out-jsonl fleet.jsonl --out-prom fleet.prom --require-reconciled
//
// `--scope NAME` labels the *next* input file's lines whose scope is empty
// (a whole-process exporter series). The merge is
// self-checking: every scope's summed deltas must equal its last declared
// cumulative totals, and --require-reconciled turns any mismatch (a lost or
// truncated line) into a nonzero exit — this backs the flow_trace_smoke
// reconciliation step.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "sciprep/common/sysio.hpp"
#include "sciprep/flow/fleet.hpp"

namespace {

using namespace sciprep;

struct Args {
  std::vector<flow::FleetInput> inputs;
  std::vector<std::string> paths;  // parallel to inputs, for messages
  std::string out_jsonl;
  std::string out_prom;
  bool require_reconciled = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: fleetview [--scope NAME] FILE [[--scope NAME] FILE...]\n"
               "                 [--out-jsonl FILE] [--out-prom FILE]\n"
               "                 [--require-reconciled]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::string pending_scope;
  auto val = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--scope") {
      pending_scope = val(i);
    } else if (f == "--out-jsonl") {
      a.out_jsonl = val(i);
    } else if (f == "--out-prom") {
      a.out_prom = val(i);
    } else if (f == "--require-reconciled") {
      a.require_reconciled = true;
    } else if (f == "--help" || f == "-h") {
      usage();
    } else if (!f.empty() && f[0] == '-') {
      std::fprintf(stderr, "fleetview: unknown flag %s\n", f.c_str());
      usage();
    } else {
      Bytes text;
      try {
        text = sysio::read_file(f);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fleetview: %s\n", e.what());
        std::exit(2);
      }
      a.inputs.push_back({pending_scope, std::string(text.begin(), text.end())});
      a.paths.push_back(f);
      pending_scope.clear();
    }
  }
  if (a.inputs.empty()) usage();
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const flow::FleetMergeResult merged = flow::merge_fleet(args.inputs);
    for (const auto& [scope, state] : merged.scopes) {
      std::printf("fleetview: scope '%s' — %llu line(s), %s\n", scope.c_str(),
                  static_cast<unsigned long long>(state.lines),
                  state.reconciled ? "reconciled" : "NOT reconciled");
    }
    std::printf("fleetview: %llu line(s) merged across %zu scope(s), "
                "%llu skipped\n",
                static_cast<unsigned long long>(merged.lines_parsed),
                merged.scopes.size(),
                static_cast<unsigned long long>(merged.lines_skipped));
    std::printf("%s\n", merged.summary_json().c_str());
    if (!args.out_jsonl.empty()) {
      sysio::write_file(args.out_jsonl, as_bytes(merged.merged_jsonl));
      std::printf("fleetview: merged series -> %s\n", args.out_jsonl.c_str());
    }
    if (!args.out_prom.empty()) {
      sysio::write_file(args.out_prom, as_bytes(merged.prometheus));
      std::printf("fleetview: prometheus -> %s\n", args.out_prom.c_str());
    }
    if (args.require_reconciled && !merged.reconciled) {
      std::fprintf(stderr,
                   "fleetview: FAIL — a scope's summed deltas do not match "
                   "its declared totals (lost or truncated lines)\n");
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetview: %s\n", e.what());
    return 2;
  }
}
