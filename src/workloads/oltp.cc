#include "workloads/oltp.hh"

#include <bit>

#include "base/logging.hh"
#include "os/sysno.hh"

namespace limit::workloads {

namespace {

/** Per-level fan-out of the simulated B-tree. */
constexpr std::uint64_t btreeFanout = 64;

/** Cheap mixing for node addresses. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}

} // namespace

OltpServer::OltpServer(sim::Machine &machine, os::Kernel &kernel,
                       const OltpConfig &config, std::uint64_t seed)
    : machine_(machine), kernel_(kernel), config_(config), rng_(seed)
{
    fatal_if(config.clients == 0, "OLTP with no clients");
    fatal_if(config.tables == 0, "OLTP with no tables");
    fatal_if(config.rowsPerTable < btreeFanout, "table too small");
    fatal_if(config.opsMin == 0 || config.opsMin > config.opsMax,
             "bad ops range");
    fatal_if(config.scanSpan == 0 ||
                 config.scanSpan >= config.rowsPerTable,
             "scan span must be in [1, rowsPerTable)");

    // Index depth: levels needed at fan-out 64.
    indexDepth_ = 1;
    std::uint64_t reach = btreeFanout;
    while (reach < config.rowsPerTable) {
        reach *= btreeFanout;
        ++indexDepth_;
    }

    for (unsigned t = 0; t < config.tables; ++t) {
        // Index: one 64B node per fan-out group, all levels packed.
        const std::uint64_t index_nodes =
            config.rowsPerTable / (btreeFanout / 2) + btreeFanout;
        indexRegions_.push_back(
            {addressSpace_.allocate(index_nodes * 64, 4096),
             index_nodes * 64});
        // Rows: 128 B each.
        rowRegions_.push_back(
            {addressSpace_.allocate(config.rowsPerTable * 128, 4096),
             config.rowsPerTable * 128});
    }
    logRegion_ = {addressSpace_.allocate(1 << 20, 4096), 1 << 20};

    auto &regions = machine.regions();
    const unsigned total_stripes = config.tables * config.lockStripes;
    stripes_.reserve(total_stripes);
    for (unsigned i = 0; i < total_stripes; ++i) {
        stripes_.push_back(std::make_unique<InstrumentedMutex>(
            addressSpace_.allocate(64, 64), "oltp.row-lock", regions));
    }
    wal_ = std::make_unique<InstrumentedMutex>(
        addressSpace_.allocate(64, 64), "oltp.wal", regions);
    for (unsigned t = 0; t < config.tables; ++t) {
        indexLocks_.push_back(std::make_unique<sync::RwLock>(
            addressSpace_.allocate(64, 64)));
    }
}

void
OltpServer::attachProfiler(pec::RegionProfiler *profiler)
{
    for (auto &s : stripes_)
        s->attachProfiler(profiler);
    wal_->attachProfiler(profiler);
}

void
OltpServer::attachSyncProfile(prof::SyncProfile *sync)
{
    if (sync != nullptr) {
        siteUpdate_ = sync->internSite("OltpServer::runTransaction/update");
        siteWal_ = sync->internSite("OltpServer::runTransaction/wal-append");
    }
    for (auto &s : stripes_)
        s->attachSyncProfile(sync);
    wal_->attachSyncProfile(sync);
}

void
OltpServer::spawn()
{
    for (unsigned i = 0; i < config_.clients; ++i) {
        tids_.push_back(kernel_.spawn(
            "oltp-client" + std::to_string(i),
            [this](sim::Guest &g) -> sim::Task<void> {
                co_await clientBody(g);
            }));
    }
}

sim::Task<void>
OltpServer::clientBody(sim::Guest &g)
{
    while (!g.shouldStop()) {
        co_await runTransaction(g);
        ++committed_;
    }
}

sim::Task<void>
OltpServer::indexWalk(sim::Guest &g, unsigned table, std::uint64_t row)
{
    // Walk from the (always hot) root toward the leaf: level l has
    // fanout^l reachable nodes, so upper levels hit in cache and the
    // leaf level misses for large tables.
    const mem::Region &index = indexRegions_[table];
    const std::uint64_t nodes = index.bytes / 64;
    std::uint64_t span = 1;
    for (unsigned level = 0; level < indexDepth_; ++level) {
        const std::uint64_t node =
            mix(row / std::max<std::uint64_t>(
                          1, config_.rowsPerTable / span) +
                (static_cast<std::uint64_t>(level) << 40) + table) %
            std::min(span, nodes);
        co_await g.load(index.base + node * 64);
        // Binary search within the node.
        co_await g.compute(90);
        span *= btreeFanout;
    }
}

sim::Task<void>
OltpServer::runTransaction(sim::Guest &g)
{
    Rng &rng = g.rng();

    // Receive the client request.
    co_await g.syscall(os::sysIoSubmit, {config_.netLatency, 0, 0, 0});
    co_await g.compute(4200); // parse + plan the SQL-ish request

    const unsigned ops =
        static_cast<unsigned>(rng.range(config_.opsMin, config_.opsMax));
    for (unsigned op = 0; op < ops; ++op) {
        const unsigned table =
            static_cast<unsigned>(rng.below(config_.tables));
        const std::uint64_t row =
            rng.zipf(config_.rowsPerTable, config_.skew);
        sync::RwLock &index_lock = *indexLocks_[table];

        if (rng.chance(config_.scanRatio)) {
            // Range scan: walk to the leaf under the shared index
            // latch, then stream consecutive rows.
            const std::uint64_t w = co_await index_lock.readLock(g);
            (void)w;
            co_await indexWalk(g, table, row);
            const mem::Region &rows = rowRegions_[table];
            const std::uint64_t start =
                row % (config_.rowsPerTable - config_.scanSpan);
            for (unsigned i = 0; i < config_.scanSpan; ++i) {
                co_await g.load(rows.base + (start + i) * 128);
                co_await g.compute(36); // tuple qualify + aggregate
            }
            co_await index_lock.readUnlock(g);
            ++scans_;
            ++operations_;
            if (config_.opHook && operations_ % config_.hookEvery == 0)
                co_await config_.opHook(g);
            continue;
        }

        const bool is_read = rng.chance(config_.readRatio);
        {
            const std::uint64_t w = co_await index_lock.readLock(g);
            (void)w;
            co_await indexWalk(g, table, row);
            co_await index_lock.readUnlock(g);
        }

        const mem::Region &rows = rowRegions_[table];
        const sim::Addr row_addr = rows.base + row * 128;
        if (is_read) {
            // Read the row outside any lock (MVCC-style read).
            co_await g.load(row_addr);
            co_await g.load(row_addr + 64);
            co_await g.compute(1400); // predicate evaluation, copy-out
        } else {
            InstrumentedMutex &stripe =
                *stripes_[table * config_.lockStripes +
                          static_cast<unsigned>(
                              row % config_.lockStripes)];
            co_await stripe.lock(g, siteUpdate_);
            // Short critical section: modify the row in place.
            co_await g.load(row_addr);
            co_await g.store(row_addr);
            co_await g.store(row_addr + 64);
            co_await g.compute(700);
            co_await stripe.unlock(g);

            // Append to the write-ahead log (global lock, very short).
            co_await wal_->lock(g, siteWal_);
            const sim::Addr slot =
                logRegion_.base + (logOffset_ % logRegion_.bytes);
            logOffset_ += 128;
            co_await g.store(slot);
            co_await g.store(slot + 64);
            co_await g.compute(260);
            co_await wal_->unlock(g);

            if (g.rng().chance(config_.splitProb)) {
                // Leaf split: restructure the index under the
                // exclusive latch (rare but heavy, blocks scanners).
                const std::uint64_t w =
                    co_await index_lock.writeLock(g);
                (void)w;
                const mem::Region &index = indexRegions_[table];
                for (int n = 0; n < 4; ++n) {
                    co_await g.store(
                        index.base + ((row + n) * 64) %
                                         index.bytes);
                }
                co_await g.compute(900); // redistribute keys
                co_await index_lock.writeUnlock(g);
                ++splits_;
            }
        }
        ++operations_;
        if (config_.opHook && operations_ % config_.hookEvery == 0)
            co_await config_.opHook(g);
    }

    co_await g.compute(2600); // serialize the response
    co_await g.syscall(os::sysIoSubmit, {config_.netLatency, 0, 0, 0});
}

} // namespace limit::workloads
