/**
 * @file
 * Tests for the perf_event-style kernel counter subsystem: counting
 * mode exactness, sampling cadence, teardown, and loss accounting.
 */

#include <gtest/gtest.h>

#include "os/kernel.hh"
#include "os/perf_event.hh"
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

MachineConfig
cfg(unsigned cores = 1, unsigned width = 48)
{
    MachineConfig c;
    c.numCores = cores;
    c.quantum = 50'000;
    c.pmuFeatures.counterWidth = width;
    return c;
}

TEST(PerfEvent, CountingReadMatchesLedgerExactly)
{
    Machine m(cfg());
    Kernel k(m);
    k.perf().setupCounting(0, EventType::Instructions, true, false);

    std::uint64_t value = 0, before = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        before = co_await g.syscall(os::sysPerfRead, {0, 0, 0, 0});
        for (int i = 0; i < 50; ++i)
            co_await g.compute(123);
        value = co_await g.syscall(os::sysPerfRead, {0, 0, 0, 0});
        co_return;
    });
    m.run();
    // Between the two reads: 50*123 compute instructions plus exactly
    // one user instruction for the second syscall trap itself.
    EXPECT_EQ(value - before, 50u * 123u + 1u);
}

TEST(PerfEvent, CountingSurvivesOverflowWithNarrowCounter)
{
    Machine m(cfg(1, 12)); // wraps every 4096 events
    Kernel k(m);
    k.perf().setupCounting(0, EventType::Instructions, true, false);
    std::uint64_t first = 0, second = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        first = co_await g.syscall(os::sysPerfRead, {0, 0, 0, 0});
        for (int i = 0; i < 100; ++i)
            co_await g.compute(1000); // 100k instrs, ~24 wraps
        second = co_await g.syscall(os::sysPerfRead, {0, 0, 0, 0});
        co_return;
    });
    m.run();
    EXPECT_EQ(second - first, 100'000u + 1u);
}

TEST(PerfEvent, CountingVirtualizedPerThread)
{
    Machine m(cfg(1, 16));
    Kernel k(m);
    k.perf().setupCounting(0, EventType::Instructions, true, false);
    std::uint64_t v[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
        k.spawn("t" + std::to_string(i), [&v, i](Guest &g) -> Task<void> {
            const std::uint64_t b =
                co_await g.syscall(os::sysPerfRead, {0, 0, 0, 0});
            for (int j = 0; j < 40; ++j)
                co_await g.compute(500 + i);
            v[i] = co_await g.syscall(os::sysPerfRead, {0, 0, 0, 0}) - b;
            co_return;
        });
    }
    m.run();
    EXPECT_EQ(v[0], 40u * 500u + 1u);
    EXPECT_EQ(v[1], 40u * 501u + 1u);
}

TEST(PerfEvent, PapiReadSameValueCheaper)
{
    Machine m(cfg());
    Kernel k(m);
    k.perf().setupCounting(0, EventType::Instructions, true, false);
    std::uint64_t perf_v = 0, papi_v = 0;
    sim::Tick perf_cost = 0, papi_cost = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(10'000);
        sim::Tick t0 = g.now();
        perf_v = co_await g.syscall(os::sysPerfRead, {0, 0, 0, 0});
        perf_cost = g.now() - t0;
        t0 = g.now();
        papi_v = co_await g.syscall(os::sysPapiRead, {0, 0, 0, 0});
        papi_cost = g.now() - t0;
        co_return;
    });
    m.run();
    EXPECT_EQ(papi_v - perf_v, 1u); // one syscall instruction apart
    EXPECT_LT(papi_cost, perf_cost);
    EXPECT_GT(papi_cost, 0u);
}

TEST(PerfEvent, SamplingProducesExpectedSampleCount)
{
    Machine m(cfg(1, 20));
    Kernel k(m);
    const std::uint64_t period = 10'000;
    k.perf().setupSampling(0, EventType::Instructions, period, true,
                           false);
    k.spawn("t", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 100; ++i)
            co_await g.compute(1000); // 100k user instructions
        co_return;
    });
    m.run();
    const auto n = k.perf().samples().size();
    EXPECT_GE(n, 9u);
    EXPECT_LE(n, 11u);
}

TEST(PerfEvent, SamplesCarryRegionAttribution)
{
    Machine m(cfg(1, 20));
    Kernel k(m);
    const auto hot = m.regions().intern("hot");
    k.perf().setupSampling(0, EventType::Instructions, 5'000, true,
                           false);
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.regionEnter(hot);
        for (int i = 0; i < 60; ++i)
            co_await g.compute(1000);
        co_await g.regionExit();
        co_return;
    });
    m.run();
    ASSERT_FALSE(k.perf().samples().empty());
    for (const auto &s : k.perf().samples()) {
        EXPECT_EQ(s.region, hot);
        EXPECT_EQ(s.tid, 0u);
    }
}

TEST(PerfEvent, TeardownClearsMode)
{
    Machine m(cfg());
    Kernel k(m);
    k.perf().setupCounting(1, EventType::Cycles, true, true);
    EXPECT_EQ(k.perf().mode(1), os::PerfMode::Counting);
    k.perf().teardown(1);
    EXPECT_EQ(k.perf().mode(1), os::PerfMode::Off);
    const sim::Pmu &pmu = m.cpu(0).pmu();
    for (unsigned i = 0; i < pmu.numCounters(); ++i)
        EXPECT_FALSE(pmu.config(i).enabled) << "counter " << i;
}

} // namespace
} // namespace limit
