/**
 * @file
 * WebServer: an Apache-class synthetic web server.
 *
 * An acceptor thread queues connections; a worker pool parses each
 * request, probes a shared in-memory content cache (striped locks,
 * Zipf-distributed URLs), fetches from "disk" on a miss, sends the
 * response, and appends to a globally locked access log. The
 * syscall-dense request path gives the large kernel-instruction share
 * the paper reports for server workloads, and the producer/consumer
 * queue provides classic condvar synchronization.
 */

#ifndef LIMIT_WORKLOADS_WEBSERVER_HH
#define LIMIT_WORKLOADS_WEBSERVER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "mem/address_stream.hh"
#include "os/kernel.hh"
#include "sync/condvar.hh"
#include "workloads/instrumented_mutex.hh"

namespace limit::workloads {

/** Web-server parameters. */
struct WebConfig
{
    unsigned workers = 8;

    /** @name Fixed by the model @{ */
    /** Distinct cacheable documents. */
    static constexpr std::uint64_t documents = 4096;
    /** Zipf skew of document popularity. */
    static constexpr double skew = 1.0;
    /** Probability a probed document is already cached. */
    static constexpr double hitRatio = 0.85;
    static constexpr unsigned cacheStripes = 16;
    /** Inter-arrival of connections at the acceptor, in ticks. */
    static constexpr sim::Tick arrivalGap = 4'000;
    /** Socket operation latency. */
    static constexpr sim::Tick netLatency = 15'000;
    /** Disk fetch latency on cache miss. */
    static constexpr sim::Tick diskLatency = 120'000;
    /** @} */
};

/** The server: acceptor + worker pool. */
class WebServer
{
  public:
    WebServer(sim::Machine &machine, os::Kernel &kernel,
              const WebConfig &config, std::uint64_t seed);

    void attachProfiler(pec::RegionProfiler *profiler);

    /** Attribute lock traffic per call site into `sync`. */
    void attachSyncProfile(prof::SyncProfile *sync);

    void spawn();

    const WebConfig &config() const { return config_; }
    std::uint64_t served() const { return served_; }
    std::uint64_t cacheMisses() const { return cacheMisses_; }

    InstrumentedMutex &logLock() { return *logLock_; }
    const std::vector<std::unique_ptr<InstrumentedMutex>> &
    cacheLocks() const
    {
        return cacheLocks_;
    }

    const std::vector<sim::ThreadId> &workerTids() const { return tids_; }
    sim::ThreadId acceptorTid() const { return acceptorTid_; }

  private:
    sim::Task<void> acceptorBody(sim::Guest &g);
    sim::Task<void> workerBody(sim::Guest &g);
    sim::Task<void> handleRequest(sim::Guest &g, std::uint64_t conn);

    sim::Machine &machine_;
    os::Kernel &kernel_;
    WebConfig config_;
    Rng rng_;
    mem::AddressSpace addressSpace_;

    mem::Region cacheRegion_;
    mem::Region logRegion_;
    std::uint64_t logOffset_ = 0;

    /**
     * The connection queue uses an uninstrumented mutex: CondVar::wait
     * releases/re-acquires the raw lock internally, which would tear
     * an instrumented "held" region (per-thread region frames must
     * nest). The cache stripes and the log lock carry instrumentation.
     */
    std::unique_ptr<sync::Mutex> queueMutex_;
    std::unique_ptr<sync::CondVar> queueCv_;
    std::deque<std::uint64_t> connQueue_; // host-side payloads
    std::vector<std::unique_ptr<InstrumentedMutex>> cacheLocks_;
    std::unique_ptr<InstrumentedMutex> logLock_;

    std::vector<sim::ThreadId> tids_;
    sim::ThreadId acceptorTid_ = sim::invalidThread;

    std::uint64_t served_ = 0;
    std::uint64_t cacheMisses_ = 0;
    std::uint64_t accepted_ = 0;

    prof::CallSiteId siteProbe_ = prof::noCallSite;
    prof::CallSiteId siteInstall_ = prof::noCallSite;
    prof::CallSiteId siteLog_ = prof::noCallSite;
};

} // namespace limit::workloads

#endif // LIMIT_WORKLOADS_WEBSERVER_HH
