/**
 * @file
 * Kernel-level tests: scheduling policy, futexes, pinning, counter
 * virtualization across context switches.
 */

#include <gtest/gtest.h>

#include "os/kernel.hh"
#include "os/sysno.hh"
#include "sim/machine.hh"

namespace limit {
namespace {

using os::Kernel;
using os::KernelConfig;
using os::ThreadState;
using sim::CounterConfig;
using sim::EventType;
using sim::Guest;
using sim::Machine;
using sim::MachineConfig;
using sim::PrivMode;
using sim::Task;

MachineConfig
cfg(unsigned cores, sim::Tick quantum = 50'000)
{
    MachineConfig c;
    c.numCores = cores;
    c.costs.quantum = quantum;
    return c;
}

TEST(Kernel, SpawnPlacesRoundRobin)
{
    Machine m(cfg(4));
    Kernel k(m);
    for (int i = 0; i < 4; ++i)
        k.spawn("t", [](Guest &g) -> Task<void> {
            co_await g.compute(10);
            co_return;
        });
    // Each thread landed on its own (previously idle) core.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(k.thread(i).homeCore, i);
    m.run();
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(k.thread(i).state, ThreadState::Done);
}

TEST(Kernel, PinnedThreadStaysOnCore)
{
    Machine m(cfg(2, 20'000));
    Kernel k(m);
    // Load core 0 with two unpinned threads and pin one to core 1.
    for (int i = 0; i < 2; ++i)
        k.spawnOn(0, false, "w", [](Guest &g) -> Task<void> {
            for (int j = 0; j < 200; ++j)
                co_await g.compute(1000);
            co_return;
        });
    const auto pinned =
        k.spawnOn(1, true, "pinned", [](Guest &g) -> Task<void> {
            for (int j = 0; j < 200; ++j) {
                co_await g.compute(1000);
                co_await g.syscall(os::sysYield);
            }
            co_return;
        });
    m.run();
    EXPECT_EQ(k.thread(pinned).homeCore, 1u);
}

TEST(Kernel, WorkStealingBalances)
{
    // 3 threads spawned onto core 0's queue with core 1 idle: the
    // idle core steals at wake/poll points. Spawn two on core 0 and
    // one on core 0 again — core 1 must end up executing something.
    Machine m(cfg(2, 10'000));
    Kernel k(m);
    std::vector<sim::CoreId> ran_on(3, 99);
    for (int i = 0; i < 3; ++i) {
        k.spawnOn(0, false, "w" + std::to_string(i),
                  [&ran_on, i](Guest &g) -> Task<void> {
                      for (int j = 0; j < 100; ++j)
                          co_await g.compute(1000);
                      ran_on[i] = g.context().lastCore;
                      co_return;
                  });
    }
    m.run();
    bool someone_on_core1 = false;
    for (auto c : ran_on)
        someone_on_core1 |= (c == 1);
    EXPECT_TRUE(someone_on_core1);
}

TEST(Kernel, FutexWakeMovesBlockedThread)
{
    Machine m(cfg(2));
    Kernel k(m);
    static std::uint64_t word;
    word = 0;
    std::uint64_t waiter_result = 99, woken = 99;
    k.spawn("waiter", [&](Guest &g) -> Task<void> {
        waiter_result = co_await g.syscall(
            os::sysFutexWait,
            {0x100, 0, reinterpret_cast<std::uint64_t>(&word), 0});
        co_return;
    });
    k.spawn("waker", [&](Guest &g) -> Task<void> {
        co_await g.compute(100'000); // let the waiter block first
        co_await g.atomicStore(&word, 0x100, 1);
        woken = co_await g.syscall(
            os::sysFutexWake,
            {0x100, 1, reinterpret_cast<std::uint64_t>(&word), 0});
        co_return;
    });
    m.run();
    EXPECT_EQ(waiter_result, 0u);
    EXPECT_EQ(woken, 1u);
}

TEST(Kernel, FutexWaitValueMismatchReturnsEagain)
{
    Machine m(cfg(1));
    Kernel k(m);
    static std::uint64_t word;
    word = 7;
    std::uint64_t r = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        r = co_await g.syscall(
            os::sysFutexWait,
            {0x100, 0, reinterpret_cast<std::uint64_t>(&word), 0});
        co_return;
    });
    m.run();
    EXPECT_EQ(r, 1u);
}

TEST(Kernel, FutexWakeWithNoWaiters)
{
    Machine m(cfg(1));
    Kernel k(m);
    static std::uint64_t word;
    word = 0;
    std::uint64_t woken = 99;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        woken = co_await g.syscall(
            os::sysFutexWake,
            {0x100, 10, reinterpret_cast<std::uint64_t>(&word), 0});
        co_return;
    });
    m.run();
    EXPECT_EQ(woken, 0u);
}

TEST(Kernel, CounterVirtualizationIsolatesThreads)
{
    // Two compute-heavy threads share one core; a user-instruction
    // counter must show each thread exactly its own ledger count.
    auto c = cfg(1, 20'000);
    Machine m(c);
    Kernel k(m);
    CounterConfig cc;
    cc.event = EventType::Instructions;
    cc.countUser = true;
    cc.countKernel = false;
    cc.enabled = true;
    k.configureCounter(0, cc);

    std::uint64_t hw_end[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i),
                [&hw_end, i](Guest &g) -> Task<void> {
                    for (int j = 0; j < 100; ++j)
                        co_await g.compute(997 + i);
                    hw_end[i] = co_await g.pmcRead(0);
                    co_return;
                });
    }
    m.run();
    // The final rdpmc includes its own instruction; everything before
    // it is 100 * (997+i) user instructions exactly.
    EXPECT_EQ(hw_end[0], 100u * 997u + 1u);
    EXPECT_EQ(hw_end[1], 100u * 998u + 1u);
}

TEST(Kernel, WithoutVirtualizationCountersLeakAcrossThreads)
{
    auto c = cfg(1, 20'000);
    Machine m(c);
    KernelConfig kc;
    kc.virtualizeCounters = false;
    Kernel k(m, kc);
    CounterConfig cc;
    cc.event = EventType::Instructions;
    cc.countUser = true;
    cc.enabled = true;
    k.configureCounter(0, cc);

    std::uint64_t hw_end[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i),
                [&hw_end, i](Guest &g) -> Task<void> {
                    for (int j = 0; j < 100; ++j)
                        co_await g.compute(1000);
                    hw_end[i] = co_await g.pmcRead(0);
                    co_return;
                });
    }
    m.run();
    // The later-finishing thread's counter saw both threads' work.
    const std::uint64_t later = std::max(hw_end[0], hw_end[1]);
    EXPECT_GT(later, 150'000u);
}

TEST(Kernel, ContextSwitchEventRecorded)
{
    Machine m(cfg(1, 10'000));
    Kernel k(m);
    for (int i = 0; i < 2; ++i)
        k.spawn("t", [](Guest &g) -> Task<void> {
            for (int j = 0; j < 50; ++j)
                co_await g.compute(2000);
            co_return;
        });
    m.run();
    const std::uint64_t sum =
        k.thread(0).ctx.ledger().count(EventType::ContextSwitches,
                                       PrivMode::Kernel) +
        k.thread(1).ctx.ledger().count(EventType::ContextSwitches,
                                       PrivMode::Kernel);
    EXPECT_GE(sum, 2u);
    EXPECT_EQ(k.totalContextSwitches() >= sum, true);
}

TEST(Kernel, YieldRotatesThreadsOnOneCore)
{
    Machine m(cfg(1, 10'000'000)); // quantum too long to preempt
    Kernel k(m);
    std::vector<int> sequence;
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i),
                [&sequence, i](Guest &g) -> Task<void> {
                    for (int j = 0; j < 5; ++j) {
                        sequence.push_back(i);
                        co_await g.compute(100);
                        co_await g.syscall(os::sysYield);
                    }
                    co_return;
                });
    }
    m.run();
    // With only yields (no preemption) the two threads alternate.
    ASSERT_EQ(sequence.size(), 10u);
    for (size_t i = 0; i + 2 < sequence.size(); i += 2)
        EXPECT_NE(sequence[i], sequence[i + 1]);
    EXPECT_GT(k.thread(0).voluntarySwitches, 0u);
}

TEST(Kernel, BlockedReportNamesThreads)
{
    Machine m(cfg(1));
    Kernel k(m);
    k.spawn("alpha", [](Guest &g) -> Task<void> {
        co_await g.compute(1);
        co_return;
    });
    // Before running, the thread is live; the report mentions it.
    EXPECT_NE(k.blockedReport().find("alpha"), std::string::npos);
    m.run();
    EXPECT_EQ(k.blockedReport(), "");
}

} // namespace
} // namespace limit
