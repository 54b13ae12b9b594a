/**
 * @file
 * Unit tests for the PMU model, including overflow/wrap semantics and
 * the three hardware-enhancement features.
 */

#include <gtest/gtest.h>

#include "sim/pmu.hh"

namespace limit::sim {
namespace {

EventDeltas
deltas(EventType e, std::uint64_t n)
{
    EventDeltas d;
    d[e] = n;
    return d;
}

TEST(Pmu, ConfigureResetsValue)
{
    Pmu pmu(4, PmuFeatures{});
    pmu.write(0, 123);
    CounterConfig cfg;
    cfg.event = EventType::Instructions;
    cfg.enabled = true;
    pmu.configure(0, cfg);
    EXPECT_EQ(pmu.read(0), 0u);
}

TEST(Pmu, CountsOnlyConfiguredEvent)
{
    Pmu pmu(2, PmuFeatures{});
    CounterConfig cfg;
    cfg.event = EventType::Instructions;
    cfg.enabled = true;
    pmu.configure(0, cfg);
    pmu.apply(PrivMode::User, deltas(EventType::Cycles, 100));
    EXPECT_EQ(pmu.read(0), 0u);
    pmu.apply(PrivMode::User, deltas(EventType::Instructions, 7));
    EXPECT_EQ(pmu.read(0), 7u);
}

TEST(Pmu, ModeFiltersRespected)
{
    Pmu pmu(2, PmuFeatures{});
    CounterConfig user_only;
    user_only.event = EventType::Cycles;
    user_only.countUser = true;
    user_only.countKernel = false;
    user_only.enabled = true;
    pmu.configure(0, user_only);

    CounterConfig kernel_only = user_only;
    kernel_only.countUser = false;
    kernel_only.countKernel = true;
    pmu.configure(1, kernel_only);

    pmu.apply(PrivMode::User, deltas(EventType::Cycles, 10));
    pmu.apply(PrivMode::Kernel, deltas(EventType::Cycles, 3));
    EXPECT_EQ(pmu.read(0), 10u);
    EXPECT_EQ(pmu.read(1), 3u);
}

TEST(Pmu, DisabledCounterDoesNotCount)
{
    Pmu pmu(1, PmuFeatures{});
    CounterConfig cfg;
    cfg.event = EventType::Cycles;
    cfg.enabled = false;
    pmu.configure(0, cfg);
    pmu.apply(PrivMode::User, deltas(EventType::Cycles, 10));
    EXPECT_EQ(pmu.read(0), 0u);
    cfg.enabled = true;
    pmu.configure(0, cfg);
    pmu.apply(PrivMode::User, deltas(EventType::Cycles, 10));
    EXPECT_EQ(pmu.read(0), 10u);
}

TEST(Pmu, WriteMasksToWidth)
{
    PmuFeatures f;
    f.counterWidth = 16;
    Pmu pmu(1, f);
    pmu.write(0, 0x12345);
    EXPECT_EQ(pmu.read(0), 0x2345u);
}

TEST(Pmu, SingleWrapDetected)
{
    PmuFeatures f;
    f.counterWidth = 16; // wraps at 65536
    Pmu pmu(1, f);
    CounterConfig cfg;
    cfg.event = EventType::Cycles;
    cfg.enabled = true;
    pmu.configure(0, cfg);
    pmu.write(0, 65530);
    OverflowSet ov = pmu.apply(PrivMode::User, deltas(EventType::Cycles, 10));
    EXPECT_TRUE(ov.any);
    EXPECT_EQ(ov.wraps[0], 1u);
    EXPECT_EQ(pmu.read(0), 4u);
}

TEST(Pmu, MultipleWrapsInOneDelta)
{
    PmuFeatures f;
    f.counterWidth = 8; // wraps at 256
    Pmu pmu(1, f);
    CounterConfig cfg;
    cfg.event = EventType::Cycles;
    cfg.enabled = true;
    pmu.configure(0, cfg);
    OverflowSet ov =
        pmu.apply(PrivMode::User, deltas(EventType::Cycles, 1000));
    EXPECT_EQ(ov.wraps[0], 3u);
    EXPECT_EQ(pmu.read(0), 1000u % 256u);
}

TEST(Pmu, NoWrapNoOverflow)
{
    PmuFeatures f;
    f.counterWidth = 48;
    Pmu pmu(1, f);
    CounterConfig cfg;
    cfg.event = EventType::Cycles;
    cfg.enabled = true;
    pmu.configure(0, cfg);
    OverflowSet ov =
        pmu.apply(PrivMode::User, deltas(EventType::Cycles, 1 << 30));
    EXPECT_FALSE(ov.any);
}

TEST(Pmu, Wide64NeverWraps)
{
    PmuFeatures f;
    f.counterWidth = 64; // hardware enhancement #1
    Pmu pmu(1, f);
    CounterConfig cfg;
    cfg.event = EventType::Cycles;
    cfg.enabled = true;
    pmu.configure(0, cfg);
    pmu.write(0, ~0ull - 5);
    // Even a huge delta just adds (modelled as unreachable wrap).
    OverflowSet ov = pmu.apply(PrivMode::User, deltas(EventType::Cycles, 3));
    EXPECT_FALSE(ov.any);
    EXPECT_EQ(pmu.read(0), ~0ull - 2);
}

TEST(Pmu, DestructiveReadClearsValue)
{
    PmuFeatures f;
    f.destructiveRead = true; // hardware enhancement #2
    Pmu pmu(1, f);
    CounterConfig cfg;
    cfg.event = EventType::Cycles;
    cfg.enabled = true;
    pmu.configure(0, cfg);
    pmu.apply(PrivMode::User, deltas(EventType::Cycles, 42));
    EXPECT_EQ(pmu.readAndClear(0), 42u);
    EXPECT_EQ(pmu.read(0), 0u);
}

TEST(PmuDeathTest, DestructiveReadNeedsFeature)
{
    Pmu pmu(1, PmuFeatures{});
    EXPECT_DEATH((void)pmu.readAndClear(0), "destructiveRead");
}

TEST(PmuDeathTest, OutOfRangeCounter)
{
    Pmu pmu(2, PmuFeatures{});
    EXPECT_DEATH((void)pmu.read(2), "out of range");
}

TEST(PmuDeathTest, BadConstruction)
{
    EXPECT_EXIT(Pmu(0, PmuFeatures{}), ::testing::ExitedWithCode(1),
                "counters");
    PmuFeatures f;
    f.counterWidth = 4;
    EXPECT_EXIT(Pmu(1, f), ::testing::ExitedWithCode(1), "width");
}

} // namespace
} // namespace limit::sim
