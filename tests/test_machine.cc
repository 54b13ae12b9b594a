/**
 * @file
 * Integration tests of the machine + kernel execution model: op
 * accounting, scheduling, determinism, and error paths.
 */

#include <gtest/gtest.h>

#include "os/kernel.hh"
#include "os/sysno.hh"
#include "sim/machine.hh"

namespace limit {
namespace {

using os::Kernel;
using sim::EventType;
using sim::Guest;
using sim::Machine;
using sim::MachineConfig;
using sim::PrivMode;
using sim::Task;
using sim::Tick;

MachineConfig
smallConfig(unsigned cores = 1)
{
    MachineConfig cfg;
    cfg.numCores = cores;
    cfg.quantum = 50'000; // short quanta so switches happen
    return cfg;
}

TEST(Machine, ComputeCountsExactly)
{
    Machine m(smallConfig());
    Kernel k(m);
    k.spawn("t", [](Guest &g) -> Task<void> {
        for (int i = 0; i < 10; ++i)
            co_await g.compute(100);
        co_return;
    });
    m.run();
    const auto &ledger = k.thread(0).ctx.ledger();
    EXPECT_EQ(ledger.count(EventType::Instructions, PrivMode::User),
              1000u);
    // Cycles: at least one per instruction plus mispredict penalties.
    EXPECT_GE(ledger.count(EventType::Cycles, PrivMode::User), 1000u);
}

TEST(Machine, BranchEventsFollowProfile)
{
    Machine m(smallConfig());
    Kernel k(m);
    k.spawn("t", [](Guest &g) -> Task<void> {
        sim::ComputeProfile p;
        p.branchFrac = 0.25;
        p.mispredictRate = 0.0;
        co_await g.compute(4000, p);
        co_return;
    });
    m.run();
    const auto &ledger = k.thread(0).ctx.ledger();
    EXPECT_EQ(ledger.count(EventType::Branches, PrivMode::User), 1000u);
    EXPECT_EQ(ledger.count(EventType::BranchMisses, PrivMode::User), 0u);
}

TEST(Machine, MispredictsAddPenaltyCycles)
{
    Machine m(smallConfig());
    Kernel k(m);
    k.spawn("t", [](Guest &g) -> Task<void> {
        sim::ComputeProfile p;
        p.branchFrac = 1.0;
        p.mispredictRate = 1.0; // every instruction mispredicts
        co_await g.compute(100, p);
        co_return;
    });
    m.run();
    const auto &ledger = k.thread(0).ctx.ledger();
    EXPECT_EQ(ledger.count(EventType::Cycles, PrivMode::User),
              100 + 100 * sim::mispredictPenalty);
    EXPECT_EQ(ledger.count(EventType::BranchMisses, PrivMode::User),
              100u);
}

TEST(Machine, LoadsAndStoresCounted)
{
    Machine m(smallConfig());
    Kernel k(m);
    k.spawn("t", [](Guest &g) -> Task<void> {
        for (int i = 0; i < 5; ++i) {
            co_await g.load(0x1000 + i * 8);
            co_await g.store(0x2000 + i * 8);
        }
        co_return;
    });
    m.run();
    const auto &ledger = k.thread(0).ctx.ledger();
    EXPECT_EQ(ledger.count(EventType::Loads, PrivMode::User), 5u);
    EXPECT_EQ(ledger.count(EventType::Stores, PrivMode::User), 5u);
    EXPECT_EQ(ledger.count(EventType::Instructions, PrivMode::User), 10u);
}

TEST(Machine, AtomicOpsReturnOldValues)
{
    Machine m(smallConfig());
    Kernel k(m);
    std::uint64_t word = 5;
    std::uint64_t cas_old = 0, faa_old = 0, xchg_old = 0, final_load = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        cas_old = co_await g.atomicCas(&word, 0x100, 5, 7);
        faa_old = co_await g.atomicFetchAdd(&word, 0x100, 3);
        xchg_old = co_await g.atomicExchange(&word, 0x100, 1);
        final_load = co_await g.atomicLoad(&word, 0x100);
        co_await g.atomicStore(&word, 0x100, 99);
        co_return;
    });
    m.run();
    EXPECT_EQ(cas_old, 5u);
    EXPECT_EQ(faa_old, 7u);
    EXPECT_EQ(xchg_old, 10u);
    EXPECT_EQ(final_load, 1u);
    EXPECT_EQ(word, 99u);
}

TEST(Machine, FailedCasLeavesWord)
{
    Machine m(smallConfig());
    Kernel k(m);
    std::uint64_t word = 3;
    std::uint64_t old = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        old = co_await g.atomicCas(&word, 0x100, 1, 9);
        co_return;
    });
    m.run();
    EXPECT_EQ(old, 3u);
    EXPECT_EQ(word, 3u);
}

TEST(Machine, SyscallNopReturnsZeroAndChargesKernel)
{
    Machine m(smallConfig());
    Kernel k(m);
    std::uint64_t r = 42;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        r = co_await g.syscall(os::sysNop);
        co_return;
    });
    m.run();
    EXPECT_EQ(r, 0u);
    const auto &ledger = k.thread(0).ctx.ledger();
    EXPECT_GT(ledger.count(EventType::Cycles, PrivMode::Kernel), 0u);
    EXPECT_GT(ledger.count(EventType::Instructions, PrivMode::Kernel),
              0u);
}

TEST(Machine, GetTidReturnsThreadId)
{
    Machine m(smallConfig(2));
    Kernel k(m);
    std::uint64_t tids[2] = {99, 99};
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i), [&tids, i](Guest &g) -> Task<void> {
            tids[i] = co_await g.syscall(os::sysGetTid);
            co_return;
        });
    }
    m.run();
    EXPECT_EQ(tids[0], 0u);
    EXPECT_EQ(tids[1], 1u);
}

TEST(Machine, TwoThreadsOneCorePreempt)
{
    Machine m(smallConfig(1));
    Kernel k(m);
    Tick last_seen[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i),
                [&last_seen, i](Guest &g) -> Task<void> {
                    for (int j = 0; j < 100; ++j) {
                        co_await g.compute(2000);
                        last_seen[i] = g.now();
                    }
                    co_return;
                });
    }
    m.run();
    // Both threads ran to completion and interleaved: each one's last
    // activity is near the end of the run, which only happens with
    // preemption on a single core.
    const Tick end = m.maxTime();
    EXPECT_GT(last_seen[0], end / 2);
    EXPECT_GT(last_seen[1], end / 2);
    EXPECT_GE(k.totalContextSwitches(), 2u);
    EXPECT_GT(k.thread(0).involuntarySwitches +
                  k.thread(1).involuntarySwitches,
              0u);
}

TEST(Machine, RegionStackTracksEnterExit)
{
    Machine m(smallConfig());
    Kernel k(m);
    const auto r1 = m.regions().intern("outer");
    const auto r2 = m.regions().intern("inner");
    sim::RegionId seen_inner = sim::noRegion;
    sim::RegionId seen_after = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.regionEnter(r1);
        co_await g.regionEnter(r2);
        co_await g.compute(10);
        seen_inner = g.context().currentRegion();
        co_await g.regionExit();
        seen_after = g.context().currentRegion();
        co_await g.regionExit();
        co_return;
    });
    m.run();
    EXPECT_EQ(seen_inner, r2);
    EXPECT_EQ(seen_after, r1);
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Machine m(smallConfig(2));
        Kernel k(m);
        for (int i = 0; i < 4; ++i) {
            k.spawn("t" + std::to_string(i), [](Guest &g) -> Task<void> {
                for (int j = 0; j < 50; ++j) {
                    co_await g.compute(500);
                    co_await g.load(0x1000 + (j % 16) * 64);
                    if (j % 10 == 0)
                        co_await g.syscall(os::sysYield);
                }
                co_return;
            });
        }
        return m.run();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Machine, StopRequestObserved)
{
    Machine m(smallConfig());
    Kernel k(m);
    m.requestStopAt(200'000);
    std::uint64_t iterations = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        while (!g.shouldStop()) {
            co_await g.compute(1000);
            ++iterations;
        }
        co_return;
    });
    const Tick end = m.run();
    EXPECT_GE(end, 200'000u);
    EXPECT_LT(end, 400'000u); // stopped promptly
    EXPECT_GT(iterations, 10u);
}

TEST(MachineDeathTest, DeadlockPanics)
{
    EXPECT_DEATH(
        {
            Machine m(smallConfig());
            Kernel k(m);
            static std::uint64_t word = 0;
            k.spawn("stuck", [](Guest &g) -> Task<void> {
                co_await g.syscall(
                    os::sysFutexWait,
                    {0x100, 0, reinterpret_cast<std::uint64_t>(&word), 0});
                co_return;
            });
            m.run();
        },
        "deadlock");
}

TEST(MachineDeathTest, HardLimitPanicsOnRunaway)
{
    EXPECT_DEATH(
        {
            auto cfg = smallConfig();
            cfg.hardLimit = 1'000'000;
            Machine m(cfg);
            Kernel k(m);
            k.spawn("forever", [](Guest &g) -> Task<void> {
                for (;;)
                    co_await g.compute(1000);
            });
            m.run();
        },
        "runaway");
}

TEST(Machine, SleepWakesInOrder)
{
    Machine m(smallConfig(1));
    Kernel k(m);
    std::vector<int> order;
    k.spawn("late", [&](Guest &g) -> Task<void> {
        co_await g.syscall(os::sysSleep, {500'000, 0, 0, 0});
        order.push_back(2);
        co_return;
    });
    k.spawn("early", [&](Guest &g) -> Task<void> {
        co_await g.syscall(os::sysSleep, {100'000, 0, 0, 0});
        order.push_back(1);
        co_return;
    });
    m.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(Machine, RusageHasQuantumResolution)
{
    auto cfg = smallConfig();
    cfg.quantum = 100'000;
    Machine m(cfg);
    Kernel k(m);
    std::uint64_t utime = 1;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        // Burn less than one quantum: tick accounting sees nothing.
        co_await g.compute(10'000);
        utime = co_await g.syscall(os::sysRusage, {0, 0, 0, 0});
        co_return;
    });
    m.run();
    EXPECT_EQ(utime, 0u); // imprecision the paper criticizes
}

} // namespace
} // namespace limit
