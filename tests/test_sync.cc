/**
 * @file
 * Tests of the guest synchronization library: mutual exclusion,
 * contention paths, rwlock semantics, condvars.
 */

#include <gtest/gtest.h>

#include "os/kernel.hh"
#include "sim/machine.hh"
#include "sync/condvar.hh"
#include "sync/mutex.hh"
#include "sync/rwlock.hh"

namespace limit {
namespace {

using os::Kernel;
using sim::Guest;
using sim::Machine;
using sim::MachineConfig;
using sim::Task;

MachineConfig
cfg(unsigned cores)
{
    MachineConfig c;
    c.numCores = cores;
    c.costs.quantum = 30'000;
    return c;
}

TEST(Sync, MutexMutualExclusion)
{
    Machine m(cfg(4));
    Kernel k(m);
    sync::Mutex mu(0x1000);
    int inside = 0;
    int max_inside = 0;
    std::uint64_t shared = 0;
    for (int i = 0; i < 4; ++i) {
        k.spawn("t" + std::to_string(i), [&](Guest &g) -> Task<void> {
            for (int j = 0; j < 50; ++j) {
                co_await mu.lock(g);
                ++inside;
                max_inside = std::max(max_inside, inside);
                ++shared;
                co_await g.compute(200); // critical section body
                --inside;
                co_await mu.unlock(g);
                co_await g.compute(100);
            }
            co_return;
        });
    }
    m.run();
    EXPECT_EQ(max_inside, 1); // never two threads inside
    EXPECT_EQ(shared, 200u);
    EXPECT_FALSE(mu.lockedHost());
    EXPECT_EQ(mu.acquisitions(), 200u);
}

TEST(Sync, MutexUncontendedStaysInUserspace)
{
    Machine m(cfg(1));
    Kernel k(m);
    sync::Mutex mu(0x1000);
    std::uint64_t waits = 99;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        waits = co_await mu.lock(g);
        co_await mu.unlock(g);
        co_return;
    });
    m.run();
    EXPECT_EQ(waits, 0u); // fast path: no futex syscalls
}

TEST(Sync, MutexContendedSleepsInKernel)
{
    Machine m(cfg(2));
    Kernel k(m);
    sync::Mutex mu(0x1000);
    std::uint64_t waits = 0;
    k.spawn("holder", [&](Guest &g) -> Task<void> {
        co_await mu.lock(g);
        co_await g.compute(500'000); // hold long enough to contend
        co_await mu.unlock(g);
        co_return;
    });
    k.spawn("blocked", [&](Guest &g) -> Task<void> {
        co_await g.compute(10'000); // let holder win
        waits += co_await mu.lock(g);
        co_await mu.unlock(g);
        co_return;
    });
    m.run();
    EXPECT_GE(waits, 1u); // took the futex slow path
}

TEST(Sync, RwLockAllowsConcurrentReaders)
{
    Machine m(cfg(4));
    Kernel k(m);
    sync::RwLock rw(0x3000);
    int readers = 0, max_readers = 0;
    for (int i = 0; i < 4; ++i) {
        k.spawn("r", [&](Guest &g) -> Task<void> {
            for (int j = 0; j < 30; ++j) {
                co_await rw.readLock(g);
                max_readers = std::max(max_readers, ++readers);
                co_await g.compute(2000);
                --readers;
                co_await rw.readUnlock(g);
            }
            co_return;
        });
    }
    m.run();
    EXPECT_GT(max_readers, 1); // overlap actually happened
}

TEST(Sync, RwLockWriterIsExclusive)
{
    Machine m(cfg(4));
    Kernel k(m);
    sync::RwLock rw(0x3000);
    int actors = 0, max_actors = 0;
    std::uint64_t writes = 0;
    for (int i = 0; i < 3; ++i) {
        k.spawn("r", [&](Guest &g) -> Task<void> {
            for (int j = 0; j < 40; ++j) {
                co_await rw.readLock(g);
                co_await g.compute(300);
                co_await rw.readUnlock(g);
                co_await g.compute(100);
            }
            co_return;
        });
    }
    k.spawn("w", [&](Guest &g) -> Task<void> {
        for (int j = 0; j < 40; ++j) {
            co_await rw.writeLock(g);
            max_actors = std::max(max_actors, ++actors);
            ++writes;
            co_await g.compute(300);
            --actors;
            co_await rw.writeUnlock(g);
            co_await g.compute(100);
        }
        co_return;
    });
    m.run();
    EXPECT_EQ(max_actors, 1); // writer alone when counting itself only
    EXPECT_EQ(writes, 40u);
    EXPECT_FALSE(rw.writerHost());
    EXPECT_EQ(rw.readersHost(), 0u);
}

TEST(Sync, CondVarSignalsConsumer)
{
    Machine m(cfg(2));
    Kernel k(m);
    sync::Mutex mu(0x4000);
    sync::CondVar cv(0x4040);
    std::uint64_t queue = 0;
    std::uint64_t consumed = 0;
    k.spawn("consumer", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 10; ++i) {
            co_await mu.lock(g);
            while (queue == 0)
                co_await cv.wait(g, mu);
            --queue;
            ++consumed;
            co_await mu.unlock(g);
        }
        co_return;
    });
    k.spawn("producer", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 10; ++i) {
            co_await g.compute(5000);
            co_await mu.lock(g);
            ++queue;
            co_await mu.unlock(g);
            co_await cv.signal(g);
        }
        co_return;
    });
    m.run();
    EXPECT_EQ(consumed, 10u);
    EXPECT_EQ(queue, 0u);
}

TEST(Sync, CondVarBroadcastWakesAll)
{
    Machine m(cfg(4));
    Kernel k(m);
    sync::Mutex mu(0x4000);
    sync::CondVar cv(0x4040);
    std::uint64_t released = 0;
    bool go = false;
    for (int i = 0; i < 3; ++i) {
        k.spawn("waiter", [&](Guest &g) -> Task<void> {
            co_await mu.lock(g);
            while (!go)
                co_await cv.wait(g, mu);
            ++released;
            co_await mu.unlock(g);
            co_return;
        });
    }
    k.spawn("broadcaster", [&](Guest &g) -> Task<void> {
        co_await g.compute(200'000);
        co_await mu.lock(g);
        go = true;
        co_await mu.unlock(g);
        co_await cv.broadcast(g);
        co_return;
    });
    m.run();
    EXPECT_EQ(released, 3u);
}

} // namespace
} // namespace limit
