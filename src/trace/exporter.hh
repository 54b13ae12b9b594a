/**
 * @file
 * Render a Tracer's contents for humans and for Perfetto.
 *
 * writeChromeTrace emits the Chrome trace-event JSON object format
 * (https://chromium.org - trace_event format), which chrome://tracing
 * and ui.perfetto.dev both load: one instant event per TraceRecord,
 * with the simulated core as the pid lane and the simulated thread as
 * the tid lane, timestamps in microseconds of simulated time at the
 * nominal clock. Extra top-level keys ("metrics", "dropped") ride
 * along; trace viewers ignore keys they do not know. Per-core
 * counter tracks ("ph": "C") step the cumulative context switches,
 * syscalls and PMIs at every matching record.
 *
 * asciiSummary prints the per-category / per-event hit counts as a
 * terminal table — the quick look before reaching for the viewer.
 */

#ifndef LIMIT_TRACE_EXPORTER_HH
#define LIMIT_TRACE_EXPORTER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "trace/trace.hh"

namespace limit::sim {
class TimelineRecorder;
}

namespace limit::trace {

/** One exported run counter: an exact count, or a ratio. */
struct RunCounter
{
    std::string key;
    std::variant<std::uint64_t, double> value;
};

/** Knobs for writeChromeTrace. */
struct ExportOptions
{
    /**
     * Optional decoder for syscall numbers: given the nr of a
     * syscall-enter/exit record, return a short name (or nullptr to
     * fall back to the number). Lets the os layer label events
     * without this library depending on it.
     */
    const char *(*syscallName)(std::uint32_t nr) = nullptr;

    /**
     * Optional finalized timeline recorder: emits one "tl-<event>"
     * counter track per core per PMU event (events with no hits
     * anywhere are skipped), valued at the event's exact per-slice
     * delta, stepped at each slice boundary. Accessed through
     * sim/timeline.hh's inline API only — limit_trace does not link
     * limit_sim.
     */
    const sim::TimelineRecorder *timeline = nullptr;
};

/**
 * Write the full Chrome-trace JSON document to `os`. `metrics` is
 * embedded as a flat top-level "metrics" object, keys sorted, counts
 * as integers and ratios as "%.6g" doubles.
 */
void writeChromeTrace(std::ostream &os, const Tracer &tracer,
                      const std::vector<RunCounter> &metrics,
                      const ExportOptions &options = {});

/** Per-category and per-event hit counts as an ASCII table. */
std::string asciiSummary(const Tracer &tracer);

} // namespace limit::trace

#endif // LIMIT_TRACE_EXPORTER_HH
