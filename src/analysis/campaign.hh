/**
 * @file
 * Compatibility shim for the end-to-end benchmark (limitbench/).
 *
 * This header exists only because limitbench/driver/measure.cc calls
 * mapGuarded(CampaignOptions{}, n, fn), and only a benchmark change
 * may edit limitbench/. ROADMAP item 6 removes the shim once
 * measure.cc calls ParallelRunner directly. New code uses
 * analysis::ParallelRunner (analysis/runner.hh).
 */

#ifndef LIMIT_ANALYSIS_CAMPAIGN_HH
#define LIMIT_ANALYSIS_CAMPAIGN_HH

#include <cstddef>
#include <utility>

#include "analysis/runner.hh"

namespace limit::analysis {

/** Fan-out width for mapGuarded; see ParallelRunner. */
struct CampaignOptions
{
    unsigned jobs = 1;
};

/** ParallelRunner(options.jobs).map(count, fn). */
template <typename Fn>
auto
mapGuarded(const CampaignOptions &options, std::size_t count, Fn fn)
{
    return ParallelRunner(options.jobs).map(count, std::move(fn));
}

} // namespace limit::analysis

#endif // LIMIT_ANALYSIS_CAMPAIGN_HH
