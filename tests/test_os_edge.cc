/**
 * @file
 * Kernel edge cases: pinning vs. stealing, futex corner semantics,
 * timed-sleep precision, perf teardown mid-run, and syscall misuse.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "os/kernel.hh"
#include "os/sysno.hh"
#include "sim/machine.hh"

namespace limit {
namespace {

using os::Kernel;
using os::ThreadState;
using sim::EventType;
using sim::Guest;
using sim::Machine;
using sim::MachineConfig;
using sim::Task;
using sim::Tick;

MachineConfig
cfg(unsigned cores, Tick quantum = 50'000)
{
    MachineConfig c;
    c.numCores = cores;
    c.costs.quantum = quantum;
    return c;
}

TEST(OsEdge, PinnedThreadNeverStolen)
{
    // Core 1 idles while a pinned thread waits in core 0's queue
    // behind a long-running thread: it must not migrate.
    Machine m(cfg(2, 30'000));
    Kernel k(m);
    k.spawnOn(0, false, "hog", [](Guest &g) -> Task<void> {
        for (int i = 0; i < 400; ++i)
            co_await g.compute(1'000);
        co_return;
    });
    std::vector<sim::CoreId> cores_seen;
    const auto pinned = k.spawnOn(
        0, true, "pinned", [&](Guest &g) -> Task<void> {
            for (int i = 0; i < 50; ++i) {
                co_await g.compute(500);
                cores_seen.push_back(g.context().lastCore);
                co_await g.syscall(os::sysYield);
            }
            co_return;
        });
    // Keep core 1 visibly idle-then-busy to give stealing chances.
    k.spawnOn(1, false, "blip", [](Guest &g) -> Task<void> {
        co_await g.compute(100);
        co_return;
    });
    m.run();
    for (auto c : cores_seen)
        EXPECT_EQ(c, 0u);
    EXPECT_EQ(k.thread(pinned).homeCore, 0u);
}

TEST(OsEdge, UnpinnedThreadDoesMigrate)
{
    Machine m(cfg(2, 30'000));
    Kernel k(m);
    k.spawnOn(0, false, "hog", [](Guest &g) -> Task<void> {
        for (int i = 0; i < 400; ++i)
            co_await g.compute(1'000);
        co_return;
    });
    std::set<sim::CoreId> cores_seen;
    k.spawnOn(0, false, "roamer", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 50; ++i) {
            co_await g.compute(500);
            cores_seen.insert(g.context().lastCore);
            co_await g.syscall(os::sysYield);
        }
        co_return;
    });
    k.spawnOn(1, false, "blip", [](Guest &g) -> Task<void> {
        co_await g.compute(100);
        co_return;
    });
    m.run();
    EXPECT_TRUE(cores_seen.contains(1)); // stolen/woken onto core 1
}

TEST(OsEdge, FutexWakeHonoursCount)
{
    Machine m(cfg(4));
    Kernel k(m);
    static std::uint64_t word;
    word = 0;
    int woken_early = 0;
    for (int i = 0; i < 3; ++i) {
        k.spawn("w" + std::to_string(i), [&](Guest &g) -> Task<void> {
            const std::uint64_t r = co_await g.syscall(
                os::sysFutexWait,
                {0x100, 0, reinterpret_cast<std::uint64_t>(&word), 0});
            EXPECT_EQ(r, 0u);
            ++woken_early;
            co_return;
        });
    }
    std::uint64_t first_wake = 99, second_wake = 99;
    k.spawn("waker", [&](Guest &g) -> Task<void> {
        co_await g.compute(200'000); // everyone parks
        first_wake = co_await g.syscall(
            os::sysFutexWake,
            {0x100, 2, reinterpret_cast<std::uint64_t>(&word), 0});
        co_await g.compute(200'000);
        second_wake = co_await g.syscall(
            os::sysFutexWake,
            {0x100, 10, reinterpret_cast<std::uint64_t>(&word), 0});
        co_return;
    });
    m.run();
    EXPECT_EQ(first_wake, 2u);
    EXPECT_EQ(second_wake, 1u);
    EXPECT_EQ(woken_early, 3);
}

TEST(OsEdge, SleepDurationIsExactFromWakePerspective)
{
    Machine m(cfg(1));
    Kernel k(m);
    Tick before = 0, after = 0;
    constexpr Tick nap = 321'000;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(1'000);
        before = g.now();
        co_await g.syscall(os::sysSleep, {nap, 0, 0, 0});
        after = g.now();
        co_return;
    });
    m.run();
    // Wake happens no earlier than the deadline, and within the
    // switch-cost slack after it.
    EXPECT_GE(after, before + nap);
    EXPECT_LE(after, before + nap + 20'000);
}

TEST(OsEdge, IoSubmitBlocksCaller)
{
    Machine m(cfg(2));
    Kernel k(m);
    std::vector<int> order;
    k.spawn("io", [&](Guest &g) -> Task<void> {
        co_await g.syscall(os::sysIoSubmit, {500'000, 0, 0, 0});
        order.push_back(1);
        co_return;
    });
    k.spawn("cpu", [&](Guest &g) -> Task<void> {
        co_await g.compute(100'000);
        order.push_back(0);
        co_return;
    });
    m.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0); // compute finishes while I/O is pending
    EXPECT_EQ(order[1], 1);
}

TEST(OsEdge, SamplingAttributesPerThreadOnMultipleCores)
{
    auto c = cfg(2);
    c.pmuFeatures.counterWidth = 22;
    Machine m(c);
    Kernel k(m);
    k.perf().setupSampling(0, EventType::Instructions, 20'000, true,
                           false);
    // Thread 0 does ~4x the work of thread 1.
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i), [i](Guest &g) -> Task<void> {
            const int reps = i == 0 ? 400 : 100;
            for (int j = 0; j < reps; ++j)
                co_await g.compute(1'000);
            co_return;
        });
    }
    m.run();
    std::uint64_t per_thread[2] = {0, 0};
    for (const auto &s : k.perf().samples()) {
        ASSERT_LT(s.tid, 2u);
        ++per_thread[s.tid];
    }
    EXPECT_GT(per_thread[0], per_thread[1] * 2);
    EXPECT_GT(per_thread[1], 0u);
}

TEST(OsEdge, PerfTeardownMidRunStopsSampling)
{
    auto c = cfg(1);
    c.pmuFeatures.counterWidth = 22;
    Machine m(c);
    Kernel k(m);
    k.perf().setupSampling(0, EventType::Instructions, 5'000, true,
                           false);
    std::size_t samples_at_teardown = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        for (int j = 0; j < 50; ++j)
            co_await g.compute(1'000);
        samples_at_teardown = k.perf().samples().size();
        k.perf().teardown(0); // host-side config change mid-run
        for (int j = 0; j < 50; ++j)
            co_await g.compute(1'000);
        co_return;
    });
    m.run();
    EXPECT_GT(samples_at_teardown, 5u);
    EXPECT_EQ(k.perf().samples().size(), samples_at_teardown);
}

TEST(OsEdgeDeathTest, UnknownSyscallIsFatal)
{
    EXPECT_EXIT(
        {
            Machine m(cfg(1));
            Kernel k(m);
            k.spawn("t", [](Guest &g) -> Task<void> {
                co_await g.syscall(os::sysCount); // out of range
                co_return;
            });
            m.run();
        },
        ::testing::ExitedWithCode(1), "unknown syscall");
}

TEST(OsEdge, RusageAttributesJiffiesByDominantMode)
{
    // A syscall-spamming thread burns almost all its quanta in the
    // kernel; a compute thread never enters it. Jiffy accounting must
    // attribute their ticks to opposite modes.
    Machine m(cfg(1, 30'000));
    Kernel k(m);
    std::uint64_t spammer_ktime = 0, computer_ktime = 99,
                  computer_utime = 0;
    k.spawn("spammer", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 2'000; ++i)
            co_await g.syscall(os::sysNop);
        spammer_ktime = co_await g.syscall(os::sysRusage, {1, 0, 0, 0});
        co_return;
    });
    k.spawn("computer", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 500; ++i)
            co_await g.compute(2'000);
        computer_ktime = co_await g.syscall(os::sysRusage, {1, 0, 0, 0});
        computer_utime = co_await g.syscall(os::sysRusage, {0, 0, 0, 0});
        co_return;
    });
    m.run();
    EXPECT_GT(spammer_ktime, 0u);
    EXPECT_EQ(computer_ktime, 0u);
    EXPECT_GT(computer_utime, 0u);
}

TEST(OsEdge, ManyThreadsManyCoresAllComplete)
{
    Machine m(cfg(8, 20'000));
    Kernel k(m);
    constexpr unsigned n = 64;
    std::uint64_t done = 0;
    for (unsigned i = 0; i < n; ++i) {
        k.spawn("t" + std::to_string(i), [&, i](Guest &g) -> Task<void> {
            for (unsigned j = 0; j < 20 + i % 7; ++j) {
                co_await g.compute(400 + (i % 13) * 50);
                if (j % 5 == i % 5)
                    co_await g.syscall(os::sysYield);
            }
            ++done;
            co_return;
        });
    }
    m.run();
    EXPECT_EQ(done, n);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(k.thread(i).state, ThreadState::Done);
}

} // namespace
} // namespace limit
