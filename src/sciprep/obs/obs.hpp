// sciprep::obs — unified tracing, metrics, and profiling layer.
//
// Umbrella header: pulls in the span tracer (trace.hpp), the metrics
// registry and its series formats (metrics.hpp), and the JSON writers and
// reader (json.hpp), and defines the
// instrumentation macros the hot paths use:
//
//   SCIPREP_OBS_SPAN("codec.cosmo.decode_cpu", "codec");
//       RAII span into Tracer::global() covering the enclosing scope.
//   SCIPREP_OBS_SPAN_NAMED(span, "sim.kernel", "sim");
//       Same, but with a named variable so args can be attached:
//       span.set_args_json(...).
//   SCIPREP_OBS_COUNT("codec.cosmo.decode_bytes_in_total", n);
//       Bump a counter in MetricsRegistry::global().
//
// Building with -DSCIPREP_OBS_DISABLED (CMake option SCIPREP_OBS_DISABLED)
// compiles the macros away entirely, so instrumented hot paths carry zero
// overhead. In the default build a runtime-disabled tracer costs one relaxed
// atomic load per span; that residual is not separately measured. loadbench's
// obs.trace_overhead_fraction prices the tracer switched on.
// Registry objects used directly (e.g. the pipeline's per-stage stats, which
// back PipelineStats) are not affected by the switch.
#pragma once

#include "sciprep/obs/json.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"

#define SCIPREP_OBS_CONCAT_IMPL(a, b) a##b
#define SCIPREP_OBS_CONCAT(a, b) SCIPREP_OBS_CONCAT_IMPL(a, b)

#if defined(SCIPREP_OBS_DISABLED)

namespace sciprep::obs {
/// Drop-in stand-in for ScopedSpan when instrumentation is compiled out.
struct NullSpan {
  void set_args_json(std::string) {}
  [[nodiscard]] bool active() const noexcept { return false; }
};
}  // namespace sciprep::obs

#define SCIPREP_OBS_SPAN_NAMED(var, name, category) \
  [[maybe_unused]] ::sciprep::obs::NullSpan var
#define SCIPREP_OBS_COUNT(name, n) \
  do {                             \
  } while (false)

#else

#define SCIPREP_OBS_SPAN_NAMED(var, name, category) \
  ::sciprep::obs::ScopedSpan var((name), (category))
#define SCIPREP_OBS_COUNT(name, n)                 \
  ::sciprep::obs::MetricsRegistry::global()        \
      .counter(name)                               \
      .add(static_cast<std::uint64_t>(n))

#endif  // SCIPREP_OBS_DISABLED

#define SCIPREP_OBS_SPAN(name, category)                                  \
  SCIPREP_OBS_SPAN_NAMED(SCIPREP_OBS_CONCAT(sciprep_obs_span_, __LINE__), \
                         name, category)
