/**
 * @file
 * Unit tests for the cache hierarchy (latencies, event deltas,
 * atomic-coherence extras).
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace limit::mem {
namespace {

using sim::EventType;

HierarchyConfig
tinyConfig()
{
    HierarchyConfig cfg;
    cfg.l1d = {1024, 2, 64};
    cfg.l2 = {4096, 4, 64};
    cfg.llc = {16384, 4, 64};
    cfg.dtlb = {4, 4096};
    return cfg;
}

TEST(Hierarchy, ColdAccessGoesToMemory)
{
    CacheHierarchy h(2, tinyConfig());
    auto r = h.access(0, 0x100000, false, false);
    const auto &c = h.config();
    EXPECT_EQ(r.latency, c.tlbMissPenalty + c.memLatency);
    EXPECT_EQ(r.deltas[EventType::L1DMiss], 1u);
    EXPECT_EQ(r.deltas[EventType::L2Miss], 1u);
    EXPECT_EQ(r.deltas[EventType::LLCMiss], 1u);
    EXPECT_EQ(r.deltas[EventType::DTlbMiss], 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(2, tinyConfig());
    h.access(0, 0x100000, false, false);
    auto r = h.access(0, 0x100000, false, false);
    EXPECT_EQ(r.latency, h.config().l1Latency);
    EXPECT_EQ(r.deltas[EventType::L1DMiss], 0u);
    EXPECT_EQ(r.deltas[EventType::DTlbMiss], 0u);
}

TEST(Hierarchy, OtherCoreMissesL1ButHitsLlc)
{
    CacheHierarchy h(2, tinyConfig());
    h.access(0, 0x100000, false, false); // fills core 0 L1/L2 and LLC
    auto r = h.access(1, 0x100000, false, false);
    const auto &c = h.config();
    EXPECT_EQ(r.deltas[EventType::L1DMiss], 1u);
    EXPECT_EQ(r.deltas[EventType::L2Miss], 1u);
    EXPECT_EQ(r.deltas[EventType::LLCMiss], 0u);
    EXPECT_EQ(r.latency, c.tlbMissPenalty + c.llcLatency);
}

TEST(Hierarchy, L1EvictionFallsBackToL2)
{
    CacheHierarchy h(1, tinyConfig());
    // tiny L1 = 16 lines; stream 64 lines to evict the first.
    for (int i = 0; i < 64; ++i)
        h.access(0, static_cast<sim::Addr>(i) * 64, false, false);
    auto r = h.access(0, 0, false, false); // line 0: out of L1, in L2
    EXPECT_EQ(r.deltas[EventType::L1DMiss], 1u);
    EXPECT_EQ(r.deltas[EventType::L2Miss], 0u);
}

TEST(Hierarchy, AtomicLocalVsRemoteCost)
{
    CacheHierarchy h(2, tinyConfig());
    const auto &c = h.config();
    // Warm the line on both cores so only the atomic extra differs.
    h.access(0, 0x1000, true, false);
    h.access(1, 0x1000, true, false);

    auto first = h.access(0, 0x1000, true, true); // no prior writer
    EXPECT_EQ(first.latency, c.l1Latency + c.atomicLocalExtra);

    auto local = h.access(0, 0x1000, true, true); // same core owns
    EXPECT_EQ(local.latency, c.l1Latency + c.atomicLocalExtra);

    auto remote = h.access(1, 0x1000, true, true); // stolen line
    EXPECT_EQ(remote.latency, c.l1Latency + c.atomicRemoteExtra);

    auto back = h.access(0, 0x1000, true, true); // stolen back
    EXPECT_EQ(back.latency, c.l1Latency + c.atomicRemoteExtra);
}

TEST(Hierarchy, PerCoreCachesAreIndependent)
{
    CacheHierarchy h(2, tinyConfig());
    h.access(0, 0x1000, false, false);
    EXPECT_TRUE(h.l1d(0).contains(0x1000));
    EXPECT_FALSE(h.l1d(1).contains(0x1000));
}

} // namespace
} // namespace limit::mem
