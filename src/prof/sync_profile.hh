/**
 * @file
 * Per-call-site synchronization attribution — the paper's MySQL lock
 * study as a reusable layer.
 *
 * A SyncProfile aggregates every lock acquisition by (lock address,
 * acquire call site): how often, how often contended (at least one
 * futex sleep), exact wait- and hold-cycle distributions, and which
 * thread each contended waiter was blocked behind (the owner at the
 * time the waiter arrived). The wait edges feed a longest-waiter
 * chain report: the heaviest path of "A waited on B waited on C"
 * by total blocked cycles.
 *
 * Feeding is host-side only (no guest work), so attaching a profile
 * does not perturb the simulation: tables produced with and without
 * one attached are bit-identical.
 */

#ifndef LIMIT_PROF_SYNC_PROFILE_HH
#define LIMIT_PROF_SYNC_PROFILE_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "stats/hdr_histogram.hh"

namespace limit::prof {

/** Interned acquire-call-site identifier (per SyncProfile). */
using CallSiteId = std::uint32_t;

/** Sentinel for "call site not annotated". */
inline constexpr CallSiteId noCallSite =
    std::numeric_limits<CallSiteId>::max();

/** Aggregates for one (lock, call site) pair. */
struct SyncSiteStats
{
    std::uint64_t acquisitions = 0;
    /** Acquisitions that slept in the kernel at least once. */
    std::uint64_t contended = 0;
    /** Total futexWait syscalls across all acquisitions. */
    std::uint64_t futexWaits = 0;
    /** Acquisition cost per visit (lock() entry to ownership). */
    stats::HdrHistogram waitCycles;
    /** Critical-section length per visit. */
    stats::HdrHistogram holdCycles;

    void merge(const SyncSiteStats &other);
};

/** Accumulated "waiter blocked behind owner" relation. */
struct WaitEdge
{
    std::uint64_t count = 0;
    std::uint64_t waitCycles = 0;
};

/** Synchronization profile for one run (mergeable across runs). */
class SyncProfile
{
  public:
    /** Key: lock address then call site, sorted for determinism. */
    using SiteKey = std::pair<sim::Addr, CallSiteId>;
    /** Key: (waiter tid, owner tid). */
    using EdgeKey = std::pair<sim::ThreadId, sim::ThreadId>;

    /** Intern a call-site label; same label returns the same id. */
    CallSiteId internSite(std::string_view name);

    /** Label of an interned site ("?" for noCallSite). */
    const std::string &siteName(CallSiteId site) const;

    /**
     * Record one completed acquisition.
     * @param owner_at_entry the lock holder observed when this waiter
     *        arrived (invalidThread when the lock was free); only
     *        contended acquisitions contribute a wait edge, and the
     *        edge's target is an approximation — the owner may hand
     *        off to another thread while the waiter sleeps.
     */
    void onAcquire(sim::Addr lock, std::string_view lock_name,
                   CallSiteId site, sim::ThreadId waiter,
                   sim::ThreadId owner_at_entry,
                   std::uint64_t wait_cycles, std::uint64_t futex_waits);

    /** Record the matching release (hold time attribution). */
    void onRelease(sim::Addr lock, CallSiteId site,
                   std::uint64_t hold_cycles);

    const std::map<SiteKey, SyncSiteStats> &sites() const
    {
        return sites_;
    }
    const std::map<sim::Addr, std::string> &lockNames() const
    {
        return lockNames_;
    }
    const std::map<EdgeKey, WaitEdge> &waitEdges() const
    {
        return edges_;
    }

    /** @name Totals over every (lock, site) @{ */
    std::uint64_t totalAcquisitions() const;
    std::uint64_t totalContended() const;
    std::uint64_t totalWaitCycles() const;
    std::uint64_t totalHoldCycles() const;
    /** @} */

    /**
     * Aggregates for one lock *class* (every lock sharing `lock_name`
     * summed over all sites) — the per-lock-class rows E5/E6 print.
     */
    SyncSiteStats classStats(std::string_view lock_name) const;

    /** Lock-class names present, sorted. */
    std::vector<std::string> classNames() const;

    /** The heaviest waiter chain by total blocked cycles. */
    struct Chain
    {
        /** tids[0] waited on tids[1] waited on ... */
        std::vector<sim::ThreadId> tids;
        std::uint64_t waitCycles = 0;
    };
    Chain longestWaiterChain() const;

    /**
     * Fold another profile in (parallel runner jobs). Call sites are
     * matched by label, locks by address — deterministic as long as
     * runs construct their locks in the same order.
     */
    void merge(const SyncProfile &other);

  private:
    std::vector<std::string> siteNames_;
    std::map<SiteKey, SyncSiteStats> sites_;
    std::map<sim::Addr, std::string> lockNames_;
    std::map<EdgeKey, WaitEdge> edges_;
};

} // namespace limit::prof

#endif // LIMIT_PROF_SYNC_PROFILE_HH
