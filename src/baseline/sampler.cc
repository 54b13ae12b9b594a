#include "baseline/sampler.hh"

namespace limit::baseline {

SamplingProfiler::SamplingProfiler(os::Kernel &kernel, unsigned ctr,
                                   sim::EventType event,
                                   std::uint64_t period, bool user,
                                   bool kernel_mode)
    : kernel_(kernel), ctr_(ctr), period_(period)
{
    kernel_.perf().clearSamples();
    kernel_.perf().setupSampling(ctr, event, period, user, kernel_mode);
}

SamplingProfiler::~SamplingProfiler()
{
    kernel_.perf().teardown(ctr_);
}

void
SamplingProfiler::aggregate()
{
    byRegion_.clear();
    total_ = 0;
    for (const auto &s : kernel_.perf().samples()) {
        ++byRegion_[s.region];
        ++total_;
    }
}

std::uint64_t
SamplingProfiler::samplesIn(sim::RegionId region) const
{
    auto it = byRegion_.find(region);
    return it == byRegion_.end() ? 0 : it->second;
}

} // namespace limit::baseline
