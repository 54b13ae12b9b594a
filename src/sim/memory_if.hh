/**
 * @file
 * Interface the CPU uses for data-memory access timing and events.
 */

#ifndef LIMIT_SIM_MEMORY_IF_HH
#define LIMIT_SIM_MEMORY_IF_HH

#include "sim/types.hh"

namespace limit::sim {

/** Timing/event outcome of one memory access. */
struct MemAccessResult
{
    Tick latency = 4;
    EventDeltas deltas{};
};

/**
 * Zero-indirection view of the conditions under which tryFastAccess
 * succeeds, consumed by the superblock replay loop (see
 * sim/superblock.hh): the replaying core validates each memory
 * micro-op against these raw fields inline instead of paying a
 * virtual call per op.
 *
 * `latency == 0` means the model exposes no fast path and memory
 * micro-ops are never replayed. With `alwaysHit` set, every plain
 * access fast-paths at `latency` and the probe fields are unused.
 * Otherwise a fast hit requires *both*
 *
 *     (addr >> pageShift) == *lastPage
 *     mruTags[((addr >> lineShift) & setMask) * ways] == addr >> lineShift
 *
 * and the implementation guarantees this predicate is exactly its
 * tryFastAccess hit condition. An access that fails it runs through
 * access() inside the replay, so `maxLatency` must bound every plain
 * access from above (and be at least `latency`): replay sizes its
 * spans against it. The pointed-to state is owned by the memory
 * model and stays valid while the machine runs; replay reads
 * `*lastPage` again after each full access it makes.
 */
struct FastPeekView
{
    Tick latency = 0;
    /** Worst-case latency of one plain (non-atomic) access(). */
    Tick maxLatency = 0;
    bool alwaysHit = false;
    const std::uint64_t *lastPage = nullptr;
    unsigned pageShift = 0;
    const std::uint64_t *mruTags = nullptr;
    unsigned lineShift = 0;
    std::uint64_t setMask = 0;
    unsigned ways = 1;
};

/** Pluggable data-memory model (see mem/CacheHierarchy). */
class MemoryIf
{
  public:
    virtual ~MemoryIf() = default;

    /**
     * Access one word (hot path): accumulate miss events into
     * `deltas` and return the access latency. The CPU calls this once
     * per load/store/atomic, so implementations should not allocate.
     * A plain (non-atomic) access adds at most one each of DTlbMiss,
     * L1DMiss, L2Miss and LLCMiss, nothing else, and takes at most
     * fastPeekView().maxLatency: superblock replay runs such accesses
     * inside a span it sized against these bounds.
     * @param core   issuing core (selects private caches)
     * @param addr   virtual address
     * @param write  store vs. load
     * @param atomic locked RMW access (coherence cost may differ)
     * @param deltas event deltas accumulated into (not cleared first)
     */
    virtual Tick access(CoreId core, Addr addr, bool write, bool atomic,
                        EventDeltas &deltas) = 0;

    /**
     * Optional hot-path probe for a plain (non-atomic) access the
     * implementation can complete without producing any event deltas
     * — e.g. a same-line L1 + same-page TLB hit. Must be *exactly*
     * equivalent to access(): same latency, same internal state
     * transitions (hit counters, recency), no observable difference.
     * @return the access latency, or 0 to decline — the caller then
     *         takes the full access() path (an implementation whose
     *         genuine hit latency is 0 simply never fast-paths).
     */
    virtual Tick
    tryFastAccess(CoreId core, Addr addr, bool write)
    {
        (void)core;
        (void)addr;
        (void)write;
        return 0;
    }

    /**
     * Publish the fast-path hit predicate for superblock replay (see
     * FastPeekView). The default — no fast path — keeps memory ops
     * out of superblocks without constraining the model.
     */
    virtual FastPeekView
    fastPeekView(CoreId core)
    {
        (void)core;
        return {};
    }

    /**
     * Credit `n` (> 0) consecutive successful fast-path accesses in
     * one call: must leave the model in exactly the state n
     * successive tryFastAccess hits would have (hit counters, recency
     * state). A superblock replay calls it before each full access it
     * makes and at its commit, so the hits land in per-op order. The
     * default matches the default tryFastAccess, which never
     * succeeds.
     */
    virtual void
    creditFastAccesses(CoreId core, std::uint64_t n)
    {
        (void)core;
        (void)n;
    }

    /** Convenience form returning a fresh result (tests, inspection). */
    MemAccessResult
    access(CoreId core, Addr addr, bool write, bool atomic)
    {
        MemAccessResult r;
        r.latency = access(core, addr, write, atomic, r.deltas);
        return r;
    }
};

/** Trivial fixed-latency memory used when no hierarchy is attached. */
class FlatMemory : public MemoryIf
{
  public:
    /** Cycles of every plain access. */
    static constexpr Tick latency = 4;
    /** Extra cycles of an atomic access. */
    static constexpr Tick atomicExtra = 12;

    using MemoryIf::access;

    Tick
    access(CoreId, Addr, bool, bool atomic, EventDeltas &) override
    {
        return latency + (atomic ? atomicExtra : 0);
    }

    /** Every plain access is a fixed-latency "hit" with no deltas. */
    Tick
    tryFastAccess(CoreId, Addr, bool) override
    {
        return latency;
    }

    /**
     * Unconditional hits, no state to credit (the inherited no-op
     * creditFastAccesses is exact here).
     */
    FastPeekView
    fastPeekView(CoreId) override
    {
        FastPeekView v;
        v.latency = latency;
        v.maxLatency = latency;
        v.alwaysHit = true;
        return v;
    }
};

} // namespace limit::sim

#endif // LIMIT_SIM_MEMORY_IF_HH
