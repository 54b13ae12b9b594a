/**
 * @file
 * Tests for optional/extension features: PMI skid modelling, the L2
 * next-line prefetcher, host-side process aggregation, the
 * instrumented mutex wrapper, and the region table.
 */

#include <gtest/gtest.h>

#include "analysis/bundle.hh"
#include "baseline/sampler.hh"
#include "mem/address_stream.hh"
#include "mem/hierarchy.hh"
#include "os/kernel.hh"
#include "pec/pec.hh"
#include "sim/machine.hh"
#include "sim/region_table.hh"
#include "workloads/instrumented_mutex.hh"

namespace limit {
namespace {

using os::Kernel;
using sim::EventType;
using sim::Guest;
using sim::Machine;
using sim::MachineConfig;
using sim::PrivMode;
using sim::Task;

// ---------------------------------------------------------------------
// PMI skid
// ---------------------------------------------------------------------

/**
 * Workload shape for skid tests: a tiny region is entered right after
 * a long filler, so most samples "belonging" to the filler can only
 * land in the tiny region if their PMI skids across the boundary.
 */
std::uint64_t
samplesInTinyRegion(sim::Tick skid)
{
    MachineConfig mc;
    mc.numCores = 1;
    mc.pmuFeatures.counterWidth = 24;
    Machine m(mc);
    Kernel k(m);
    k.perf().setSkid(skid);
    k.perf().setupSampling(0, EventType::Instructions, 2'000, true,
                           false);
    const auto tiny = m.regions().intern("tiny");
    k.spawn("t", [&](Guest &g) -> Task<void> {
        sim::ComputeProfile p;
        p.branchFrac = 0;
        p.mispredictRate = 0;
        for (int i = 0; i < 300; ++i) {
            co_await g.compute(1'990, p); // filler ~ one period
            co_await g.regionEnter(tiny);
            co_await g.compute(10, p);
            co_await g.regionExit();
        }
        co_return;
    });
    m.run();
    std::uint64_t in_tiny = 0;
    for (const auto &s : k.perf().samples())
        in_tiny += (s.region == tiny);
    return in_tiny;
}

TEST(Skid, MisattributesAwayFromShortRegions)
{
    // Without skid, PMIs that fire inside the tiny region attribute
    // to it; with a skid window larger than the region, they get
    // pushed back to the filler (here: the no-region context), so the
    // tiny region loses its few rightful samples.
    const std::uint64_t without = samplesInTinyRegion(0);
    const std::uint64_t with = samplesInTinyRegion(500);
    EXPECT_GT(without, 0u);
    EXPECT_LT(with, without);
}

TEST(Skid, DoesNotAffectPreciseCounting)
{
    // PEC reads never consult the sampling machinery: identical
    // results with and without skid configured.
    auto measure = [](sim::Tick skid) {
        MachineConfig mc;
        mc.numCores = 1;
        Machine m(mc);
        Kernel k(m);
        k.perf().setSkid(skid);
        pec::PecSession s(k);
        s.addEvent(0, EventType::Instructions);
        std::uint64_t v = 0;
        k.spawn("t", [&](Guest &g) -> Task<void> {
            co_await g.compute(5000);
            v = co_await s.read(g, 0);
            co_return;
        });
        m.run();
        return v;
    };
    EXPECT_EQ(measure(0), measure(1'000));
}

// ---------------------------------------------------------------------
// Next-line prefetcher
// ---------------------------------------------------------------------

TEST(Prefetcher, CutsL2MissesForStreams)
{
    auto l2_misses = [](bool prefetch) {
        mem::HierarchyConfig cfg;
        cfg.nextLinePrefetch = prefetch;
        mem::CacheHierarchy h(1, cfg);
        std::uint64_t misses = 0;
        for (int i = 0; i < 4096; ++i) {
            auto r = h.access(0, 0x100000 + i * 64ull, false, false);
            misses += r.deltas[EventType::L2Miss];
        }
        return std::pair{misses, h.prefetchesIssued()};
    };
    const auto [miss_off, pf_off] = l2_misses(false);
    const auto [miss_on, pf_on] = l2_misses(true);
    EXPECT_EQ(pf_off, 0u);
    EXPECT_GT(pf_on, 1000u);
    // Streaming walk: nearly every L2 miss disappears.
    EXPECT_LT(miss_on, miss_off / 10);

    // What a miss prefetches is its successor line, into L2.
    mem::HierarchyConfig cfg;
    cfg.nextLinePrefetch = true;
    mem::CacheHierarchy h(1, cfg);
    h.access(0, 0x1000, false, false);
    EXPECT_TRUE(h.l2(0).contains(0x1040));
}

TEST(Prefetcher, DoesNotHelpPointerChase)
{
    auto l2_misses = [](bool prefetch) {
        mem::HierarchyConfig cfg;
        cfg.nextLinePrefetch = prefetch;
        mem::CacheHierarchy h(1, cfg);
        mem::Region region{0x100000, 8 * 1024 * 1024};
        mem::PointerChaseStream chase(region, Rng(3));
        std::uint64_t misses = 0;
        for (int i = 0; i < 4096; ++i) {
            auto r = h.access(0, chase.next(), false, false);
            misses += r.deltas[EventType::L2Miss];
        }
        return misses;
    };
    const auto off = l2_misses(false);
    const auto on = l2_misses(true);
    // Random-walk misses are untouched (within a small tolerance).
    EXPECT_NEAR(static_cast<double>(on), static_cast<double>(off),
                static_cast<double>(off) * 0.05);
}

// ---------------------------------------------------------------------
// Host-side aggregation
// ---------------------------------------------------------------------

TEST(ProcessTotal, SumsAllThreadsExactly)
{
    analysis::SimBundle b(analysis::BundleOptions::builder()
                              .cores(2)
                              .quantum(30'000)
                              .build());
    pec::PecSession s(b.kernel());
    s.addEvent(0, EventType::Instructions, true, false);
    for (int i = 0; i < 4; ++i) {
        b.kernel().spawn("t" + std::to_string(i),
                         [&](Guest &g) -> Task<void> {
                             for (int j = 0; j < 30; ++j)
                                 co_await g.compute(700);
                             co_return;
                         });
    }
    b.machine().run();
    EXPECT_EQ(s.processTotal(0),
              analysis::totalEvent(b.kernel(), EventType::Instructions,
                                   PrivMode::User));
}

TEST(ProcessTotal, ReadsLiveThreadsMidRun)
{
    // Harvest while a thread is still installed on a core: the live
    // hardware value must be used, not the stale saved copy.
    analysis::SimBundle b(
        analysis::BundleOptions::builder().cores(1).build());
    pec::PecSession s(b.kernel());
    s.addEvent(0, EventType::Instructions, true, false);
    std::uint64_t mid_total = 0;
    std::uint64_t mid_ledger = 0;
    b.kernel().spawn("t", [&](Guest &g) -> Task<void> {
        co_await g.compute(9'000);
        // Host-side harvest at a known point (zero guest cost).
        mid_total = s.processTotal(0);
        mid_ledger = g.context().ledger().count(
            EventType::Instructions, PrivMode::User);
        co_await g.compute(1'000);
        co_return;
    });
    b.machine().run();
    EXPECT_EQ(mid_total, mid_ledger);
    EXPECT_GE(mid_total, 9'000u);
}

// ---------------------------------------------------------------------
// InstrumentedMutex
// ---------------------------------------------------------------------

TEST(InstrumentedMutex, NoProfilerMeansNoRegions)
{
    MachineConfig mc;
    mc.numCores = 1;
    Machine m(mc);
    Kernel k(m);
    workloads::InstrumentedMutex mu(0x1000, "lk", m.regions());
    sim::RegionId seen = 0;
    k.spawn("t", [&](Guest &g) -> Task<void> {
        co_await mu.lock(g);
        seen = g.context().currentRegion();
        co_await mu.unlock(g);
        co_return;
    });
    m.run();
    EXPECT_EQ(seen, sim::noRegion);
    EXPECT_EQ(mu.acquisitions(), 1u);
}

TEST(InstrumentedMutex, ProfilerSeesAcquireAndHeld)
{
    MachineConfig mc;
    mc.numCores = 1;
    Machine m(mc);
    Kernel k(m);
    pec::PecSession s(k);
    s.addEvent(0, EventType::Cycles, true, true);
    pec::RegionProfilerConfig rc;
    rc.counters = {0};
    pec::RegionProfiler prof(s, rc);
    workloads::InstrumentedMutex mu(0x1000, "lk", m.regions());
    mu.attachProfiler(&prof);
    k.spawn("t", [&](Guest &g) -> Task<void> {
        for (int i = 0; i < 10; ++i) {
            co_await mu.lock(g);
            co_await g.compute(500);
            co_await mu.unlock(g);
        }
        co_return;
    });
    m.run();
    const auto &held = prof.stats(mu.heldRegion());
    const auto &acq = prof.stats(mu.acquireRegion());
    EXPECT_EQ(held.entries, 10u);
    EXPECT_EQ(acq.entries, 10u);
    EXPECT_GT(held.mean(0), 500.0); // body + instrumentation
}

TEST(InstrumentedMutex, SharedNameMergesStats)
{
    // Two locks constructed with the same name intern the same
    // regions, so a profiler aggregates them as one lock class.
    MachineConfig mc;
    Machine m(mc);
    workloads::InstrumentedMutex a(0x1000, "stripe", m.regions());
    workloads::InstrumentedMutex b(0x2000, "stripe", m.regions());
    EXPECT_EQ(a.acquireRegion(), b.acquireRegion());
    EXPECT_EQ(a.heldRegion(), b.heldRegion());
}

// ---------------------------------------------------------------------
// RegionTable
// ---------------------------------------------------------------------

TEST(RegionTable, InternIsIdempotent)
{
    sim::RegionTable t;
    const auto a = t.intern("x");
    const auto b = t.intern("x");
    const auto c = t.intern("y");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.name(a), "x");
}

TEST(RegionTable, FindWithoutInsert)
{
    sim::RegionTable t;
    EXPECT_EQ(t.find("missing"), sim::noRegion);
    t.intern("present");
    EXPECT_NE(t.find("present"), sim::noRegion);
    EXPECT_EQ(t.name(sim::noRegion), "<none>");
}

} // namespace
} // namespace limit
