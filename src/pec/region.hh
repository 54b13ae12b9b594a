/**
 * @file
 * Precise per-region (code segment) attribution built on PecSession.
 *
 * This is the workflow the paper's case studies use: wrap interesting
 * code segments (lock acquisition, critical sections, event handlers)
 * in enter/exit reads, subtract the calibrated cost of the reads
 * themselves, and aggregate exact event counts per region — including
 * full distributions, which sampling profilers cannot produce for
 * segments shorter than their sampling period.
 */

#ifndef LIMIT_PEC_REGION_HH
#define LIMIT_PEC_REGION_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pec/session.hh"
#include "stats/hdr_histogram.hh"

namespace limit::pec {

/** Exact aggregates for one region. */
struct RegionStats
{
    std::uint64_t entries = 0;
    /** Sum of per-visit deltas for each configured counter. */
    std::array<std::uint64_t, sim::maxPmuCounters> totals{};
    /** Distribution of counter 0's per-visit delta. */
    stats::HdrHistogram histogram;

    /** Mean per-visit delta of counter `ctr`. */
    double
    mean(unsigned ctr) const
    {
        return entries == 0
            ? 0.0
            : static_cast<double>(totals[ctr]) /
                  static_cast<double>(entries);
    }
};

/** Options for a RegionProfiler. */
struct RegionProfilerConfig
{
    /**
     * Which counters to snapshot at region boundaries. Must include
     * counter 0, whose per-visit delta feeds the histogram.
     */
    std::vector<unsigned> counters{0};
    /** Subtract the calibrated read overhead from each visit. */
    bool subtractOverhead = true;
    /**
     * Use destructive reads (hardware enhancement #2) instead of a
     * start/stop snapshot pair; requires the PMU feature.
     */
    bool destructiveReads = false;
};

/** Measures exact event counts for named code regions. */
class RegionProfiler
{
  public:
    RegionProfiler(PecSession &session, RegionProfilerConfig config);

    /**
     * Measure the session's read overhead in each counter's own units
     * by timing back-to-back reads; run once from any guest thread
     * before measurement (enables overhead subtraction).
     */
    sim::Task<void> calibrate(sim::Guest &g);

    /** Begin measuring `region` (regions may nest). */
    sim::Task<void> enter(sim::Guest &g, sim::RegionId region);

    /**
     * Finish the innermost open region (must be `region`) and fold
     * the deltas into its aggregates. Returns this visit's
     * (overhead-subtracted) delta of counter 0, so
     * callers can attribute the measurement further (e.g. per
     * call site) without a second read.
     */
    sim::Task<std::uint64_t> exit(sim::Guest &g, sim::RegionId region);

    /** Aggregates for `region` (zeros when never visited). */
    const RegionStats &stats(sim::RegionId region) const;

    /** All regions visited so far. */
    std::vector<sim::RegionId> regions() const;

    /**
     * One entered-never-exited visit: which region, which thread
     * holds it open, and when it was entered.
     */
    struct OpenVisit
    {
        sim::RegionId region = sim::noRegion;
        sim::ThreadId tid = sim::invalidThread;
        sim::Tick enterTick = 0;

        bool operator==(const OpenVisit &) const = default;
    };

    /**
     * Diagnostic: every visit still open (entered, never exited),
     * sorted by (region, tid, enterTick). A visit that never exits
     * contributes nothing to stats() — it has no delta to fold — so
     * a non-empty result means the aggregates silently miss those
     * visits (typically a guest that hit the stop request
     * mid-region). Surfacing beats dropping: E15 exports the count
     * as a lattice metric.
     */
    std::vector<OpenVisit> openRegions() const;

    /** Calibrated per-visit overhead for counter `ctr`. */
    std::uint64_t overhead(unsigned ctr) const { return overhead_[ctr]; }

    bool calibrated() const { return calibrated_; }

  private:
    sim::Task<std::uint64_t> readCounter(sim::Guest &g, unsigned ctr);

    PecSession &session_;
    RegionProfilerConfig config_;
    std::unordered_map<sim::RegionId, RegionStats> stats_;
    /** Currently-open visit count per region (enter - exit). */
    std::unordered_map<sim::RegionId, std::uint64_t> open_;
    std::array<std::uint64_t, sim::maxPmuCounters> overhead_{};
    bool calibrated_ = false;
};

} // namespace limit::pec

#endif // LIMIT_PEC_REGION_HH
