/**
 * @file
 * One call from a bench's main: harvest a traced bundle and write the
 * Chrome-trace JSON.
 *
 * Keeps every bench's --trace handling identical: standard metrics
 * (run length, context switches, ledger totals, per-category trace
 * hit counts, ring drops) are folded into the bundle's
 * MetricsRegistry, the JSON file is written with syscall numbers
 * decoded, and the ASCII per-category summary is printed to stdout.
 */

#ifndef LIMIT_ANALYSIS_TRACE_REPORT_HH
#define LIMIT_ANALYSIS_TRACE_REPORT_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "analysis/bundle.hh"

namespace limit::analysis {

/** One exported machine counter: an exact count, or a ratio. */
struct RunCounter
{
    std::string key;
    std::variant<std::uint64_t, double> value;
};

/**
 * The machine counters every run artifact exports, named once here:
 * simulated end time, context switches, host work (sim::WorkStats),
 * superblock replay stats and, when a tracer is attached, ring totals
 * and per-core drops. harvestStandardMetrics folds them into the
 * trace metrics (counts as counters, ratios as gauges) and
 * writeRunArtifacts into the profile's meta. Host-work counts depend
 * on the execution mode, so no table and no fingerprint reads them.
 */
std::vector<RunCounter> runCounters(SimBundle &bundle);

/**
 * Fold standard post-run metrics from `bundle` (runCounters plus
 * ledger totals, thread count and, when a tracer is attached,
 * per-category trace counts) into bundle.metrics(). Safe to call on
 * an untraced bundle.
 */
void harvestStandardMetrics(SimBundle &bundle);

/**
 * harvestStandardMetrics + write the Chrome-trace JSON to `path` +
 * print the ASCII summary. Returns false (with a message on stderr)
 * when the bundle has no tracer or the file cannot be written.
 */
bool writeTraceReport(SimBundle &bundle, const std::string &path);

} // namespace limit::analysis

#endif // LIMIT_ANALYSIS_TRACE_REPORT_HH
