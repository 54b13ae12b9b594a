/**
 * @file
 * Sampling profiler baseline: overflow-driven IP sampling.
 *
 * Represents the "imprecise" arm of the paper's trade-off: no guest
 * instrumentation at all, but every estimate is samples x period —
 * a statistical extrapolation whose error explodes for code segments
 * shorter than the sampling period.
 */

#ifndef LIMIT_BASELINE_SAMPLER_HH
#define LIMIT_BASELINE_SAMPLER_HH

#include <cstdint>
#include <unordered_map>

#include "os/kernel.hh"
#include "os/perf_event.hh"
#include "sim/types.hh"

namespace limit::baseline {

/** Configures sampling on one counter and aggregates the profile. */
class SamplingProfiler
{
  public:
    /**
     * Start sampling `event` every `period` occurrences using
     * hardware counter `ctr`.
     */
    SamplingProfiler(os::Kernel &kernel, unsigned ctr,
                     sim::EventType event, std::uint64_t period,
                     bool user = true, bool kernel_mode = false);
    ~SamplingProfiler();

    SamplingProfiler(const SamplingProfiler &) = delete;
    SamplingProfiler &operator=(const SamplingProfiler &) = delete;

    std::uint64_t period() const { return period_; }

    /** Build/refresh the aggregation from the kernel's ring buffer. */
    void aggregate();

    /** Samples attributed to `region` (after aggregate()). */
    std::uint64_t samplesIn(sim::RegionId region) const;

    /** Estimated event count for `region`: samples x period. */
    double
    estimate(sim::RegionId region) const
    {
        return static_cast<double>(samplesIn(region)) *
               static_cast<double>(period_);
    }

    std::uint64_t totalSamples() const { return total_; }

  private:
    os::Kernel &kernel_;
    unsigned ctr_;
    std::uint64_t period_;
    std::unordered_map<sim::RegionId, std::uint64_t> byRegion_;
    std::uint64_t total_ = 0;
};

} // namespace limit::baseline

#endif // LIMIT_BASELINE_SAMPLER_HH
