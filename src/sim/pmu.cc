#include "sim/pmu.hh"

#include "base/logging.hh"

namespace limit::sim {

Pmu::Pmu(unsigned num_counters, const PmuFeatures &features)
    : numCounters_(num_counters), features_(features)
{
    fatal_if(num_counters == 0 || num_counters > maxPmuCounters,
             "PMU supports 1..", maxPmuCounters, " counters, got ",
             num_counters);
    fatal_if(features.counterWidth < 8 || features.counterWidth > 64,
             "PMU counter width must be in [8, 64], got ",
             features.counterWidth);
}

void
Pmu::configure(unsigned idx, const CounterConfig &cfg)
{
    panic_if(idx >= numCounters_, "PMU counter index ", idx,
             " out of range");
    configs_[idx] = cfg;
    values_[idx] = 0;
    rebuildActive();
}

void
Pmu::rebuildActive()
{
    for (unsigned m = 0; m < 2; ++m) {
        activeCount_[m] = 0;
        for (unsigned i = 0; i < numCounters_; ++i) {
            const CounterConfig &cfg = configs_[i];
            if (!cfg.enabled)
                continue;
            if (m == 0 ? !cfg.countUser : !cfg.countKernel)
                continue;
            active_[m][activeCount_[m]++] = {
                static_cast<std::uint8_t>(i),
                static_cast<std::uint8_t>(cfg.event)};
        }
    }
}

const CounterConfig &
Pmu::config(unsigned idx) const
{
    panic_if(idx >= numCounters_, "PMU counter index ", idx,
             " out of range");
    return configs_[idx];
}

void
Pmu::write(unsigned idx, std::uint64_t value)
{
    panic_if(idx >= numCounters_, "PMU counter index ", idx,
             " out of range");
    values_[idx] = value & valueMask();
}

std::uint64_t
Pmu::read(unsigned idx) const
{
    panic_if(idx >= numCounters_, "PMU counter index ", idx,
             " out of range");
    return values_[idx];
}

std::uint64_t
Pmu::readAndClear(unsigned idx)
{
    panic_if(idx >= numCounters_, "PMU counter index ", idx,
             " out of range");
    panic_if(!features_.destructiveRead,
             "readAndClear without the destructiveRead feature");
    const std::uint64_t v = values_[idx];
    values_[idx] = 0;
    return v;
}

OverflowSet
Pmu::apply(PrivMode mode, const EventDeltas &deltas)
{
    WrapEvent ev[maxPmuCounters];
    const unsigned n = applyFast(mode, deltas, ev);
    OverflowSet out;
    for (unsigned k = 0; k < n; ++k) {
        out.wraps[ev[k].counter] = ev[k].wraps;
        out.any = true;
    }
    return out;
}

} // namespace limit::sim
