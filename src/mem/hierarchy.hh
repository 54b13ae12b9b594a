/**
 * @file
 * Multi-level cache hierarchy implementing sim::MemoryIf.
 *
 * Geometry and latencies default to a 2011-era Xeon-class part
 * (per-core 32 KiB L1D and 256 KiB L2, shared 8 MiB LLC), matching
 * the testbed class the paper evaluated on. A tiny last-writer
 * directory adds cache-to-cache transfer cost for contended atomics,
 * which is what makes lock-acquisition cost scale with contention in
 * the synchronization case studies.
 */

#ifndef LIMIT_MEM_HIERARCHY_HH
#define LIMIT_MEM_HIERARCHY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "sim/memory_if.hh"

namespace limit::mem {

/** Hierarchy-wide configuration. */
struct HierarchyConfig
{
    CacheGeometry l1d{32 * 1024, 8, 64};
    CacheGeometry l2{256 * 1024, 8, 64};
    CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    TlbGeometry dtlb{64, 4096};

    sim::Tick l1Latency = 4;
    sim::Tick l2Latency = 12;
    sim::Tick llcLatency = 38;
    sim::Tick memLatency = 220;
    sim::Tick tlbMissPenalty = 60;
    /** Extra cycles for a locked RMW on a locally owned line. */
    sim::Tick atomicLocalExtra = 16;
    /** Extra cycles when the line was last written by another core. */
    sim::Tick atomicRemoteExtra = 72;
    /**
     * Next-line prefetcher at L2: every demand L2 lookup preloads the
     * successor line into L2 (zero-latency model; fills count in the
     * prefetch statistic, not the demand-miss events).
     */
    bool nextLinePrefetch = false;
};

/**
 * Named enumeration of every HierarchyConfig knob, in declaration
 * order: ("l1d_size_bytes", 32768), ("l1_latency", 4), ... Report
 * writers stamp this into experiment metadata so a result always
 * carries the exact machine it was measured on, and the sensitivity
 * engine uses it to label the base point of a parameter lattice.
 */
std::vector<std::pair<const char *, std::uint64_t>>
configFields(const HierarchyConfig &config);

/** Private L1D/L2 per core, shared LLC, per-core DTLB. */
class CacheHierarchy : public sim::MemoryIf
{
  public:
    CacheHierarchy(unsigned num_cores, const HierarchyConfig &config);

    using sim::MemoryIf::access;

    sim::Tick access(sim::CoreId core, sim::Addr addr, bool write,
                     bool atomic, sim::EventDeltas &deltas) override;

    /**
     * All-hit fast path: same-page DTLB repeat plus MRU-way L1D hit,
     * the overwhelmingly common case for streaming access patterns.
     * Probes are pure until both are known to hit, then the hit
     * counters / TLB recency are credited exactly as access() would —
     * so hit/miss statistics and replacement state stay bit-identical
     * whichever path an access takes.
     * @return l1Latency on a fast hit, 0 to make the caller fall back
     *         to access() (also declines on out-of-range core ids so
     *         access() can raise the proper panic).
     */
    sim::Tick
    tryFastAccess(sim::CoreId core, sim::Addr addr, bool write) override
    {
        (void)write;
        if (core >= hot_.size())
            return 0;
        const HotPath &h = hot_[core];
        if (!h.tlb->peekLastPage(addr) || !h.l1->peekMru(addr))
            return 0;
        h.tlb->creditLastPageHit();
        h.l1->creditMruHit();
        return config_.l1Latency;
    }

    /**
     * The exact tryFastAccess hit predicate, exported field by field:
     * same-page TLB repeat AND MRU-way L1 hit at l1Latency. Write vs.
     * read makes no difference on this path, mirroring tryFastAccess.
     * The worst plain access misses the TLB and is served by the
     * slowest level; the levels' latencies are independent knobs, so
     * that is the largest of them, not necessarily memLatency.
     */
    sim::FastPeekView
    fastPeekView(sim::CoreId core) override
    {
        sim::FastPeekView v;
        if (core >= hot_.size() || config_.l1Latency == 0)
            return v;
        const HotPath &h = hot_[core];
        v.latency = config_.l1Latency;
        v.maxLatency = config_.tlbMissPenalty +
                       std::max({config_.l1Latency, config_.l2Latency,
                                 config_.llcLatency, config_.memLatency});
        v.lastPage = h.tlb->lastPagePtr();
        v.pageShift = h.tlb->pageShiftBits();
        v.mruTags = h.l1->tagArrayPtr();
        v.lineShift = h.l1->lineShiftBits();
        v.setMask = h.l1->setIndexMask();
        v.ways = h.l1->ways();
        return v;
    }

    void
    creditFastAccesses(sim::CoreId core, std::uint64_t n) override
    {
        const HotPath &h = hot_[core];
        h.tlb->creditLastPageHits(n);
        h.l1->creditMruHits(n);
    }

    const HierarchyConfig &config() const { return config_; }
    Cache &l1d(sim::CoreId core);
    Cache &l2(sim::CoreId core);
    Cache &llc() { return *llc_; }
    Tlb &dtlb(sim::CoreId core);

    /** Lines preloaded by the next-line prefetcher so far. */
    std::uint64_t prefetchesIssued() const { return prefetches_; }

  private:
    /** Raw per-core pointers for the fast path: one indexed load
     *  instead of two unique_ptr dereference chains per probe. */
    struct HotPath
    {
        Tlb *tlb;
        Cache *l1;
    };

    HierarchyConfig config_;
    std::vector<HotPath> hot_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<Tlb>> dtlb_;
    /** line -> last core to write it with a locked access. */
    std::unordered_map<std::uint64_t, sim::CoreId> lastAtomicWriter_;
    std::uint64_t prefetches_ = 0;
};

} // namespace limit::mem

#endif // LIMIT_MEM_HIERARCHY_HH
