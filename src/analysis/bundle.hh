/**
 * @file
 * Experiment plumbing shared by benches, examples, and tests: a
 * SimBundle wires a machine, cache hierarchy, and kernel together
 * with one call, and small helpers aggregate ledger totals.
 */

#ifndef LIMIT_ANALYSIS_BUNDLE_HH
#define LIMIT_ANALYSIS_BUNDLE_HH

#include <memory>

#include "mem/hierarchy.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "trace/trace.hh"

namespace limit::analysis {

struct BenchArgs;

/**
 * Options for building a standard experiment machine.
 *
 * Construct through BundleOptions::Builder (or derive a variant from
 * an existing options value with Builder::from), which validates the
 * combination at build() time; direct default construction is
 * deprecated and field-by-field aggregate initialization no longer
 * compiles (see docs/API.md).
 */
struct BundleOptions
{
    unsigned cores = 4;
    unsigned pmuCounters = 4;
    sim::PmuFeatures pmuFeatures{};
    /** 0 keeps the CostModel default quantum. */
    sim::Tick quantum = 0;
    std::uint64_t seed = 1;
    /** Attach the Xeon-class cache hierarchy (vs. flat memory). */
    bool useCaches = true;
    mem::HierarchyConfig hierarchy{};
    os::KernelConfig kernelConfig{};
    /** Attach a trace::Tracer that keeps every record. */
    bool trace = false;
    /**
     * Timeline slice width in guest cycles; 0 builds no recorder.
     * Nonzero attaches a sim::TimelineRecorder capturing every
     * core's exact per-interval PMU event deltas (bit-identical
     * across execution modes; see docs/TIMELINE.md).
     */
    unsigned timelineInterval = 0;
    /**
     * Horizon-batched run loop with replay of declared loops
     * (sim::MachineConfig::batched). Results are bit-identical either
     * way; false forces the per-op reference scheduler for this
     * bundle even when the process default is batched. Overridden
     * globally by LIMITPP_FORCE_NO_BATCH (see
     * sim::batchedExecutionDefault).
     */
    bool batched = true;

    class Builder;
    /** Start a validated fluent build (canonical defaults). */
    static Builder builder();

    [[deprecated("construct BundleOptions via BundleOptions::builder()"
                 " (or Builder::from to derive a variant)")]]
    BundleOptions() = default;

  private:
    /** Non-deprecated construction path reserved for the Builder. */
    struct FromBuilder
    {
    };
    explicit BundleOptions(FromBuilder) {}
};

/**
 * Fluent, validating constructor for BundleOptions. Each setter names
 * the knob it sets; build() cross-checks the combination (counter
 * width range, feature dependencies, cache geometry) and fatals with a
 * message naming the offending pair, so an impossible machine is
 * rejected where it is written instead of misbehaving mid-run.
 */
class BundleOptions::Builder
{
  public:
    /**
     * Seed a builder from an existing options value, so a variant
     * machine can be derived programmatically (the sensitivity
     * lattice's per-axis perturbations use exactly this). The flat-
     * memory/hierarchy choice carries over and still conflict-checks:
     * applying a cache setter to a flat-memory base is rejected at
     * build() rather than silently re-enabling caches.
     */
    static Builder
    from(const BundleOptions &base)
    {
        Builder b;
        b.o_ = base;
        b.flat_ = !base.useCaches;
        b.hier_ = base.useCaches;
        return b;
    }

    Builder &cores(unsigned n) { o_.cores = n; return *this; }
    Builder &pmuCounters(unsigned n) { o_.pmuCounters = n; return *this; }
    /** Replace the whole PMU feature set (still validated by build()). */
    Builder &pmuFeatures(const sim::PmuFeatures &f)
    {
        o_.pmuFeatures = f;
        return *this;
    }
    /** Hardware counter width in bits (paper enhancement #1 at 64). */
    Builder &pmuWidth(unsigned bits)
    {
        o_.pmuFeatures.counterWidth = bits;
        return *this;
    }
    /** Read-and-clear counters (paper enhancement #2). */
    Builder &destructiveRead(bool on = true)
    {
        o_.pmuFeatures.destructiveRead = on;
        return *this;
    }
    /** Hardware-swapped counter sets (paper enhancement #3). */
    Builder &taggedVirtualization(bool on = true)
    {
        o_.pmuFeatures.taggedVirtualization = on;
        return *this;
    }
    Builder &quantum(sim::Tick q) { o_.quantum = q; return *this; }
    Builder &seed(std::uint64_t s) { o_.seed = s; return *this; }
    /** Flat fixed-latency memory instead of the cache hierarchy. */
    Builder &flatMemory()
    {
        flat_ = true;
        o_.useCaches = false;
        return *this;
    }
    Builder &hierarchy(const mem::HierarchyConfig &h)
    {
        hier_ = true;
        o_.useCaches = true;
        o_.hierarchy = h;
        return *this;
    }

    /**
     * @name Per-field cache-hierarchy setters
     * Each names one HierarchyConfig knob, implies the cache
     * hierarchy, and is validated by build() — the sensitivity axes
     * (analysis/sensitivity/param_space.hh) perturb machines through
     * these instead of rebuilding a whole HierarchyConfig.
     * @{
     */
    Builder &l1Size(std::uint64_t bytes)
    {
        return hierField().l1d.sizeBytes = bytes, *this;
    }
    Builder &l1Latency(sim::Tick t)
    {
        return hierField().l1Latency = t, *this;
    }
    Builder &l2Latency(sim::Tick t)
    {
        return hierField().l2Latency = t, *this;
    }
    Builder &memLatency(sim::Tick t)
    {
        return hierField().memLatency = t, *this;
    }
    Builder &tlbEntries(unsigned n)
    {
        return hierField().dtlb.entries = n, *this;
    }
    Builder &nextLinePrefetch(bool on = true)
    {
        return hierField().nextLinePrefetch = on, *this;
    }
    /** @} */

    /** Kernel-side counter save/restore across switches. */
    Builder &virtualizeCounters(bool on)
    {
        o_.kernelConfig.virtualizeCounters = on;
        return *this;
    }
    Builder &trace(bool on = true)
    {
        o_.trace = on;
        return *this;
    }
    /** Timeline slice width in guest cycles (0 = no recorder). */
    Builder &timelineInterval(unsigned ticks)
    {
        o_.timelineInterval = ticks;
        return *this;
    }
    /**
     * Record what a bench's representative run needs for the
     * artifacts `args` requests: a tracer for --trace or --profile
     * (the profile pairs syscall records), a recorder of
     * --timeline-interval slices for --timeline. nullptr, as a
     * fan-out job passes, attaches nothing.
     */
    Builder &capture(const BenchArgs *args);
    /** Per-op reference scheduler instead of horizon batching. */
    Builder &batched(bool on)
    {
        o_.batched = on;
        return *this;
    }

    /** Validate the combination and return the options (fatals on
     *  an impossible machine). */
    BundleOptions build() const;

  private:
    mem::HierarchyConfig &
    hierField()
    {
        hier_ = true;
        o_.useCaches = true;
        return o_.hierarchy;
    }

    BundleOptions o_{BundleOptions::FromBuilder{}};
    /** flatMemory() was requested (conflicts with any cache setter). */
    bool flat_ = false;
    /** hierarchy(cfg) or a per-field cache setter was requested. */
    bool hier_ = false;
};

inline BundleOptions::Builder
BundleOptions::builder()
{
    return Builder{};
}

/** Machine + memory + kernel with consistent construction order. */
class SimBundle
{
  public:
    explicit SimBundle(const BundleOptions &options);

    sim::Machine &machine() { return *machine_; }
    os::Kernel &kernel() { return *kernel_; }
    mem::CacheHierarchy *hierarchy() { return hierarchy_.get(); }

    /** Trace sink (nullptr unless trace was set). */
    trace::Tracer *tracer() { return tracer_.get(); }

    /** Timeline recorder (nullptr unless timelineInterval was set). */
    sim::TimelineRecorder *timeline() { return timeline_.get(); }

    /** Run with a stop request at `stop_at` ticks. */
    sim::Tick run(sim::Tick stop_at);

  private:
    std::unique_ptr<sim::Machine> machine_;
    std::unique_ptr<mem::CacheHierarchy> hierarchy_;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<trace::Tracer> tracer_;
    std::unique_ptr<sim::TimelineRecorder> timeline_;
};

/** Sum one event across every thread (one privilege mode). */
std::uint64_t totalEvent(os::Kernel &kernel, sim::EventType event,
                         sim::PrivMode mode);

/** Sum one event across every thread, both modes. */
std::uint64_t totalEvent(os::Kernel &kernel, sim::EventType event);

/** a / b as a percentage; 0 when b == 0. */
double percentOf(std::uint64_t a, std::uint64_t b);

} // namespace limit::analysis

#endif // LIMIT_ANALYSIS_BUNDLE_HH
