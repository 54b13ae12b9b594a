#include "analysis/bundle.hh"

#include <bit>

#include "analysis/args.hh"
#include "base/logging.hh"

namespace limit::analysis {

namespace {

/**
 * Builder-level replica of the mem::Cache constructor geometry checks,
 * so an axis-derived or hand-built configuration fails at build() with
 * a message naming the builder field instead of deep inside machine
 * construction.
 */
void
checkCacheGeometry(const char *level, const mem::CacheGeometry &g)
{
    fatal_if(g.lineBytes == 0 ||
                 !std::has_single_bit(
                     static_cast<std::uint64_t>(g.lineBytes)),
             "BundleOptions: ", level,
             " line size must be a nonzero power of two, got ",
             g.lineBytes);
    fatal_if(g.ways == 0, "BundleOptions: ", level, " needs ways >= 1");
    const std::uint64_t lines = g.sizeBytes / g.lineBytes;
    fatal_if(lines == 0 || lines % g.ways != 0,
             "BundleOptions: ", level, " size ", g.sizeBytes,
             " is inconsistent with ", g.ways, " ways of ", g.lineBytes,
             "-byte lines");
    const std::uint64_t sets = lines / g.ways;
    fatal_if(!std::has_single_bit(sets),
             "BundleOptions: ", level, " set count ", sets,
             " must be a power of two (adjust size or ways)");
}

} // namespace

BundleOptions::Builder &
BundleOptions::Builder::capture(const BenchArgs *args)
{
    if (args == nullptr)
        return *this;
    if (args->tracing() || args->profiling())
        o_.trace = true;
    if (args->timelineOn())
        o_.timelineInterval = args->timelineInterval;
    return *this;
}

BundleOptions
BundleOptions::Builder::build() const
{
    fatal_if(flat_ && hier_,
             "BundleOptions: flatMemory() conflicts with hierarchy()/"
             "per-field cache setters — pick one memory model");
    fatal_if(o_.cores == 0, "BundleOptions: need at least one core");
    fatal_if(o_.pmuCounters == 0 ||
                 o_.pmuCounters > sim::maxPmuCounters,
             "BundleOptions: pmuCounters must be in [1, ",
             sim::maxPmuCounters, "], got ", o_.pmuCounters);
    fatal_if(o_.pmuFeatures.counterWidth < 8 ||
                 o_.pmuFeatures.counterWidth > 64,
             "BundleOptions: pmuWidth must be in [8, 64] bits, got ",
             o_.pmuFeatures.counterWidth);
    // Tagged virtualization swaps per-thread counter sets in
    // hardware; with kernel virtualization off nothing ever saves or
    // restores them, so the feature silently does nothing — reject
    // the combination as a configuration error.
    fatal_if(o_.pmuFeatures.taggedVirtualization &&
                 !o_.kernelConfig.virtualizeCounters,
             "BundleOptions: taggedVirtualization requires "
             "virtualizeCounters(true)");
    // A tiny interval allocates one 88-byte slice per handful of ops —
    // gigabytes over a long run. parseBenchArgs enforces the same
    // bound on --timeline-interval; this catches programmatic use.
    fatal_if(o_.timelineInterval != 0 && o_.timelineInterval < 256,
             "BundleOptions: timelineInterval must be 0 (off) or "
             ">= 256 guest cycles, got ", o_.timelineInterval);
    if (o_.useCaches) {
        checkCacheGeometry("l1d", o_.hierarchy.l1d);
        checkCacheGeometry("l2", o_.hierarchy.l2);
        checkCacheGeometry("llc", o_.hierarchy.llc);
        fatal_if(o_.hierarchy.dtlb.entries == 0,
                 "BundleOptions: tlbEntries must be >= 1");
        fatal_if(o_.hierarchy.dtlb.pageBytes == 0 ||
                     !std::has_single_bit(static_cast<std::uint64_t>(
                         o_.hierarchy.dtlb.pageBytes)),
                 "BundleOptions: TLB page size must be a nonzero power "
                 "of two, got ", o_.hierarchy.dtlb.pageBytes);
    }
    return o_;
}

SimBundle::SimBundle(const BundleOptions &options)
{
    sim::MachineConfig mc;
    mc.numCores = options.cores;
    mc.pmuCounters = options.pmuCounters;
    mc.pmuFeatures = options.pmuFeatures;
    mc.seed = options.seed;
    mc.batched = options.batched;
    if (options.quantum != 0)
        mc.costs.quantum = options.quantum;
    machine_ = std::make_unique<sim::Machine>(mc);

    if (options.useCaches) {
        hierarchy_ = std::make_unique<mem::CacheHierarchy>(
            options.cores, options.hierarchy);
        machine_->setMemory(hierarchy_.get());
    }

    os::KernelConfig kc = options.kernelConfig;
    kc.seed = options.seed ^ 0x5eed;
    kernel_ = std::make_unique<os::Kernel>(*machine_, kc);

    if (options.trace) {
        tracer_ = std::make_unique<trace::Tracer>(options.cores);
        machine_->setTracer(tracer_.get());
    }

    if (options.timelineInterval > 0) {
        timeline_ = std::make_unique<sim::TimelineRecorder>(
            options.timelineInterval);
        machine_->setTimeline(timeline_.get());
    }
}

sim::Tick
SimBundle::run(sim::Tick stop_at)
{
    machine_->requestStopAt(stop_at);
    return machine_->run();
}

std::uint64_t
totalEvent(os::Kernel &kernel, sim::EventType event, sim::PrivMode mode)
{
    std::uint64_t total = 0;
    for (unsigned t = 0; t < kernel.numThreads(); ++t)
        total += kernel.thread(t).ctx.ledger().count(event, mode);
    return total;
}

std::uint64_t
totalEvent(os::Kernel &kernel, sim::EventType event)
{
    return totalEvent(kernel, event, sim::PrivMode::User) +
           totalEvent(kernel, event, sim::PrivMode::Kernel);
}

double
percentOf(std::uint64_t a, std::uint64_t b)
{
    return b == 0 ? 0.0
                  : 100.0 * static_cast<double>(a) /
                        static_cast<double>(b);
}

} // namespace limit::analysis
