/**
 * @file
 * Named metrics harvested into bench JSON output.
 *
 * A MetricsRegistry is a flat namespace of monotonic counters and
 * point-in-time gauges, filled after (not during) a simulation run —
 * typically from ledger totals, PEC session stats, and trace counts —
 * and rendered as one sorted JSON object so every bench's output
 * carries the same machine-readable health block.
 *
 * Not thread-safe by design: each analysis::SimBundle owns one
 * registry and fills it from its own run, on the thread that runs the
 * bundle.
 */

#ifndef LIMIT_TRACE_METRICS_HH
#define LIMIT_TRACE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace limit::trace {

/** Flat, deterministic registry of named counters and gauges. */
class MetricsRegistry
{
  public:
    /** Add `delta` to monotonic counter `name` (created at zero). */
    void add(std::string_view name, std::uint64_t delta = 1);

    /** Set gauge `name` to `value` (overwrites). */
    void set(std::string_view name, double value);

    /** Current counter value (0 when never touched). */
    std::uint64_t counter(std::string_view name) const;

    /** Current gauge value (0.0 when never set). */
    double gauge(std::string_view name) const;

    bool hasCounter(std::string_view name) const;
    bool hasGauge(std::string_view name) const;

    bool
    empty() const
    {
        return counters_.empty() && gauges_.empty();
    }

    /**
     * One JSON object, keys sorted, counters as integers and gauges
     * as doubles. `indent` spaces of leading indentation per line.
     */
    std::string toJson(unsigned indent = 0) const;

  private:
    std::map<std::string, std::uint64_t, std::less<>> counters_;
    std::map<std::string, double, std::less<>> gauges_;
};

} // namespace limit::trace

#endif // LIMIT_TRACE_METRICS_HH
