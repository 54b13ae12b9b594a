/**
 * @file
 * OltpServer: a MySQL-class synthetic OLTP engine.
 *
 * Client threads execute short transactions against striped tables:
 * B-tree index walks (hot upper levels, cold leaves), row reads and
 * updates under striped row locks, and write-ahead-log appends under
 * a global log lock — the fine-grained, many-short-critical-sections
 * locking structure whose behaviour the paper's MySQL case study
 * characterizes. Per-transaction network I/O gives the kernel-time
 * profile of a socket-fed database server.
 */

#ifndef LIMIT_WORKLOADS_OLTP_HH
#define LIMIT_WORKLOADS_OLTP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/address_stream.hh"
#include "os/kernel.hh"
#include "sync/rwlock.hh"
#include "workloads/instrumented_mutex.hh"

namespace limit::workloads {

/** OLTP engine parameters. */
struct OltpConfig
{
    unsigned clients = 8;
    /** Rows per table (sets index depth and leaf working set). */
    std::uint64_t rowsPerTable = 1 << 16;
    /** Fraction of operations that only read. */
    double readRatio = 0.7;
    /**
     * Optional per-operation instrumentation hook (e.g. a counter
     * read for the overhead-scaling experiment); awaited after every
     * `hookEvery`-th operation when set.
     */
    std::function<sim::Task<void>(sim::Guest &)> opHook;
    unsigned hookEvery = 1;

    /** @name Fixed by the model @{ */
    static constexpr unsigned tables = 8;
    /** Row-lock stripes per table. */
    static constexpr unsigned lockStripes = 16;
    /** Zipf skew of row selection. */
    static constexpr double skew = 0.9;
    /** Fraction of operations that are index range scans. */
    static constexpr double scanRatio = 0.12;
    /** Rows touched by one range scan. */
    static constexpr unsigned scanSpan = 32;
    /** Probability a write also restructures the index (node split),
        taking the table's index lock exclusively. */
    static constexpr double splitProb = 0.03;
    /** Operations per transaction: uniform in [min, max]. */
    static constexpr unsigned opsMin = 1;
    static constexpr unsigned opsMax = 4;
    /**
     * Device latency of one socket operation (client recv/send around
     * each transaction), in ticks.
     */
    static constexpr sim::Tick netLatency = 20'000;
    /** @} */
};

/** The engine: construct, optionally attach a profiler, spawn. */
class OltpServer
{
  public:
    OltpServer(sim::Machine &machine, os::Kernel &kernel,
               const OltpConfig &config, std::uint64_t seed);

    /** Route all lock instrumentation through `profiler`. */
    void attachProfiler(pec::RegionProfiler *profiler);

    /** Attribute lock traffic per call site into `sync`. */
    void attachSyncProfile(prof::SyncProfile *sync);

    /** Create the client threads (they run until shouldStop()). */
    void spawn();

    const OltpConfig &config() const { return config_; }

    /** Committed transactions (host-side, zero cost). */
    std::uint64_t committed() const { return committed_; }
    /** Executed operations. */
    std::uint64_t operations() const { return operations_; }
    /** Range scans executed. */
    std::uint64_t scans() const { return scans_; }
    /** Index node splits executed (exclusive index lock held). */
    std::uint64_t splits() const { return splits_; }

    /** Lock inventory for reporting. */
    InstrumentedMutex &walLock() { return *wal_; }
    const std::vector<std::unique_ptr<InstrumentedMutex>> &
    stripeLocks() const
    {
        return stripes_;
    }

    /** Thread ids of the spawned clients. */
    const std::vector<sim::ThreadId> &clientTids() const { return tids_; }

  private:
    sim::Task<void> clientBody(sim::Guest &g);
    sim::Task<void> runTransaction(sim::Guest &g);
    sim::Task<void> indexWalk(sim::Guest &g, unsigned table,
                              std::uint64_t row);

    sim::Machine &machine_;
    os::Kernel &kernel_;
    OltpConfig config_;
    Rng rng_;
    mem::AddressSpace addressSpace_;

    unsigned indexDepth_;
    std::vector<mem::Region> indexRegions_; // one per table
    std::vector<mem::Region> rowRegions_;   // one per table
    mem::Region logRegion_;
    std::uint64_t logOffset_ = 0;

    std::vector<std::unique_ptr<InstrumentedMutex>> stripes_;
    std::unique_ptr<InstrumentedMutex> wal_;
    /** Per-table reader-writer index latch (shared walks, exclusive
        structural modification). */
    std::vector<std::unique_ptr<sync::RwLock>> indexLocks_;
    std::vector<sim::ThreadId> tids_;

    std::uint64_t committed_ = 0;
    std::uint64_t operations_ = 0;
    std::uint64_t scans_ = 0;
    std::uint64_t splits_ = 0;

    /** Interned acquire call sites (valid once a profile attached). */
    prof::CallSiteId siteUpdate_ = prof::noCallSite;
    prof::CallSiteId siteWal_ = prof::noCallSite;
};

} // namespace limit::workloads

#endif // LIMIT_WORKLOADS_OLTP_HH
