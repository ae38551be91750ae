// Engine-wide observability switches and the shared monotonic clock.
//
// Five independently toggleable facets:
//   metrics  — counters / gauges / histograms (obs/metrics.h)
//   trace    — RAII phase scopes → chrome://tracing JSON (obs/trace.h)
//   audit    — per-(query, demand) admission decisions (obs/audit.h)
//   recorder — deterministic causal-step journal (obs/recorder.h)
//   watchdog — streaming drift / SLO-anomaly detector (obs/watchdog.h)
//
// All facets default OFF; setting the environment variable EDGEREP_OBS=1
// turns metrics/trace/audit on at startup (CI runs the whole test suite
// that way).  The recorder has its own variable, EDGEREP_RECORD, because
// journals grow with the event count and must not piggyback on blanket obs
// runs; the watchdog likewise has EDGEREP_WATCHDOG, because its alert
// stream is run-scoped detector state rather than passive sampling.  The
// `set_*` functions override the environment at any time.
//
// Contract: facets only observe.  Instrumented code samples these flags
// (the simulators once per run, through obs/causal_sink.h), so plans,
// duals, and simulation outcomes match an uninstrumented build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace edgerep::obs {

namespace detail {
extern std::atomic<bool> g_metrics_on;
extern std::atomic<bool> g_trace_on;
extern std::atomic<bool> g_audit_on;
extern std::atomic<bool> g_recorder_on;
extern std::atomic<bool> g_watchdog_on;
/// Defined in recorder.cpp: parse EDGEREP_RECORD and reset the recorder.
void recorder_apply_env();
/// Defined in watchdog.cpp: parse EDGEREP_WATCHDOG and reset the watchdog.
void watchdog_apply_env();
}  // namespace detail

[[nodiscard]] inline bool metrics_enabled() noexcept {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool audit_enabled() noexcept {
  return detail::g_audit_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool recorder_enabled() noexcept {
  return detail::g_recorder_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool watchdog_enabled() noexcept {
  return detail::g_watchdog_on.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept;
void set_trace_enabled(bool on) noexcept;
void set_audit_enabled(bool on) noexcept;
void set_recorder_enabled(bool on) noexcept;
void set_watchdog_enabled(bool on) noexcept;
/// Convenience: flip metrics + trace + audit at once.  Deliberately leaves
/// the recorder and watchdog alone — enable them explicitly or via
/// EDGEREP_RECORD / EDGEREP_WATCHDOG.
void set_all_enabled(bool on) noexcept;

/// Re-read EDGEREP_OBS / EDGEREP_RECORD / EDGEREP_WATCHDOG and reset every
/// facet accordingly (tests use this to restore the process default after
/// toggling flags explicitly; it also clears the recorder's journal and the
/// watchdog's alert state).
void init_from_env();

/// Monotonic nanoseconds since process start.  Shared by LOG timestamps,
/// the phase tracer, and metric snapshots so all observability output is on
/// one clock.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Small dense per-thread ordinal (0, 1, 2, ...) assigned on first call;
/// used for counter striping and as the tracer's tid.
[[nodiscard]] std::size_t thread_ordinal() noexcept;

}  // namespace edgerep::obs
