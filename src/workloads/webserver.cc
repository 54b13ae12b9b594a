#include "workloads/webserver.hh"

#include "base/logging.hh"
#include "os/sysno.hh"

namespace limit::workloads {

WebServer::WebServer(sim::Machine &machine, os::Kernel &kernel,
                     const WebConfig &config, std::uint64_t seed)
    : machine_(machine), kernel_(kernel), config_(config), rng_(seed)
{
    fatal_if(config.workers == 0, "web server with no workers");

    cacheRegion_ = {
        addressSpace_.allocate(WebConfig::documents * 256, 4096),
        WebConfig::documents * 256};
    logRegion_ = {addressSpace_.allocate(1 << 20, 4096), 1 << 20};

    auto &regions = machine.regions();
    queueMutex_ = std::make_unique<sync::Mutex>(
        addressSpace_.allocate(64, 64));
    queueCv_ = std::make_unique<sync::CondVar>(
        addressSpace_.allocate(64, 64));
    for (unsigned i = 0; i < WebConfig::cacheStripes; ++i) {
        cacheLocks_.push_back(std::make_unique<InstrumentedMutex>(
            addressSpace_.allocate(64, 64), "web.cache-lock", regions));
    }
    logLock_ = std::make_unique<InstrumentedMutex>(
        addressSpace_.allocate(64, 64), "web.access-log", regions);
}

void
WebServer::attachProfiler(pec::RegionProfiler *profiler)
{
    for (auto &c : cacheLocks_)
        c->attachProfiler(profiler);
    logLock_->attachProfiler(profiler);
}

void
WebServer::attachSyncProfile(prof::SyncProfile *sync)
{
    if (sync != nullptr) {
        siteProbe_ = sync->internSite("WebServer::handleRequest/cache-probe");
        siteInstall_ =
            sync->internSite("WebServer::handleRequest/cache-install");
        siteLog_ = sync->internSite("WebServer::handleRequest/access-log");
    }
    for (auto &c : cacheLocks_)
        c->attachSyncProfile(sync);
    logLock_->attachSyncProfile(sync);
}

void
WebServer::spawn()
{
    acceptorTid_ = kernel_.spawn(
        "web-acceptor", [this](sim::Guest &g) -> sim::Task<void> {
            co_await acceptorBody(g);
        });
    for (unsigned i = 0; i < config_.workers; ++i) {
        tids_.push_back(kernel_.spawn(
            "web-worker" + std::to_string(i),
            [this](sim::Guest &g) -> sim::Task<void> {
                co_await workerBody(g);
            }));
    }
}

sim::Task<void>
WebServer::acceptorBody(sim::Guest &g)
{
    while (!g.shouldStop()) {
        // Wait for the next arrival, then accept() it.
        co_await g.syscall(os::sysSleep, {WebConfig::arrivalGap, 0, 0, 0});
        co_await g.syscall(os::sysIoSubmit,
                           {WebConfig::netLatency, 0, 0, 0});
        co_await g.compute(150); // allocate connection state

        co_await queueMutex_->lock(g);
        connQueue_.push_back(++accepted_);
        co_await queueMutex_->unlock(g);
        co_await queueCv_->signal(g);
    }
    // Drain: wake every worker so they can observe the stop flag.
    co_await queueCv_->broadcast(g);
}

sim::Task<void>
WebServer::workerBody(sim::Guest &g)
{
    for (;;) {
        std::uint64_t conn = 0;
        bool have_conn = false;

        co_await queueMutex_->lock(g);
        for (;;) {
            if (!connQueue_.empty()) {
                conn = connQueue_.front();
                connQueue_.pop_front();
                have_conn = true;
                break;
            }
            if (g.shouldStop())
                break;
            co_await queueCv_->wait(g, *queueMutex_);
        }
        co_await queueMutex_->unlock(g);

        if (!have_conn) {
            // Help any sibling still parked on the condvar.
            co_await queueCv_->broadcast(g);
            co_return;
        }
        co_await handleRequest(g, conn);
        ++served_;
    }
}

sim::Task<void>
WebServer::handleRequest(sim::Guest &g, std::uint64_t conn)
{
    Rng &rng = g.rng();

    // Read the request from the socket and parse it.
    co_await g.syscall(os::sysIoSubmit, {WebConfig::netLatency, 0, 0, 0});
    co_await g.compute(3200); // header parse: branchy string work

    const std::uint64_t doc = rng.zipf(WebConfig::documents, WebConfig::skew);
    const sim::Addr doc_addr = cacheRegion_.base + doc * 256;
    InstrumentedMutex &stripe =
        *cacheLocks_[doc % WebConfig::cacheStripes];

    // Probe the content cache (short critical section).
    bool hit;
    co_await stripe.lock(g, siteProbe_);
    co_await g.load(doc_addr);
    co_await g.compute(70); // hash lookup + LRU touch
    hit = rng.chance(WebConfig::hitRatio);
    co_await stripe.unlock(g);

    if (!hit) {
        ++cacheMisses_;
        // Fetch from disk, then install in the cache.
        co_await g.syscall(os::sysIoSubmit,
                           {WebConfig::diskLatency, 0, 0, 0});
        co_await stripe.lock(g, siteInstall_);
        co_await g.store(doc_addr);
        co_await g.store(doc_addr + 64);
        co_await g.compute(120);
        co_await stripe.unlock(g);
    }

    // Build and send the response.
    co_await g.compute(2400);
    co_await g.load(doc_addr + 128);
    co_await g.syscall(os::sysIoSubmit, {WebConfig::netLatency, 0, 0, 0});

    // Append to the access log (global lock, very short hold).
    co_await logLock_->lock(g, siteLog_);
    const sim::Addr slot =
        logRegion_.base + (logOffset_ % logRegion_.bytes);
    logOffset_ += 64;
    co_await g.store(slot);
    co_await g.compute(40 + (conn % 7)); // format the log line
    co_await logLock_->unlock(g);
}

} // namespace limit::workloads
