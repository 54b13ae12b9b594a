/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "mem/cache.hh"

namespace limit::mem {
namespace {

TEST(Cache, ColdMissThenHit)
{
    Cache c("t", {1024, 2, 64});
    EXPECT_FALSE(c.access(0x40)); // miss installs the line
    EXPECT_TRUE(c.access(0x40));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit)
{
    Cache c("t", {1024, 2, 64});
    c.fill(0x40);
    EXPECT_TRUE(c.access(0x40));
    EXPECT_TRUE(c.access(0x7f)); // same 64B line
    EXPECT_FALSE(c.access(0x80)); // next line
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, 2 sets: lines with the same parity map to the same set.
    Cache c("t", {256, 2, 64});
    ASSERT_EQ(c.numSets(), 2u);
    const sim::Addr a = 0 * 64, b = 2 * 64, d = 4 * 64; // all set 0
    c.fill(a);
    c.fill(b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_TRUE(c.contains(b));
    // Touch a so b becomes LRU; then filling d must evict b.
    EXPECT_TRUE(c.access(a));
    c.fill(d);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, ContainsDoesNotPerturbLru)
{
    Cache c("t", {256, 2, 64});
    const sim::Addr a = 0 * 64, b = 2 * 64, d = 4 * 64;
    c.fill(a); // a is LRU after b fills
    c.fill(b);
    (void)c.contains(a); // must NOT refresh a
    c.fill(d); // evicts a (still LRU)
    EXPECT_FALSE(c.contains(a));
    EXPECT_TRUE(c.contains(b));
}

TEST(Cache, WorkingSetLargerThanCacheAlwaysMisses)
{
    Cache c("t", {1024, 4, 64}); // 16 lines
    // Stream 64 distinct lines twice: second pass still misses
    // (capacity), since LRU evicts before reuse.
    for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < 64; ++i) {
            c.access(static_cast<sim::Addr>(i) * 64);
        }
    }
    EXPECT_EQ(c.misses(), 128u);
}

TEST(Cache, WorkingSetFittingAlwaysHitsAfterWarmup)
{
    Cache c("t", {1024, 4, 64}); // 16 lines
    for (int pass = 0; pass < 3; ++pass) {
        for (int i = 0; i < 16; ++i) {
            c.access(static_cast<sim::Addr>(i) * 64);
        }
    }
    EXPECT_EQ(c.misses(), 16u); // only the cold pass
    EXPECT_EQ(c.hits(), 32u);
}

/** Naive true-LRU reference: per set, lines most recent first. */
struct RefCache
{
    unsigned ways;
    std::vector<std::vector<std::uint64_t>> sets;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::vector<std::uint64_t> &
    setOf(std::uint64_t line)
    {
        return sets[line % sets.size()];
    }

    bool
    resident(std::uint64_t line)
    {
        auto &set = setOf(line);
        return std::find(set.begin(), set.end(), line) != set.end();
    }

    void
    install(std::uint64_t line)
    {
        auto &set = setOf(line);
        if (set.size() == ways)
            set.pop_back();
        set.insert(set.begin(), line);
    }

    bool
    access(std::uint64_t line)
    {
        auto &set = setOf(line);
        const auto it = std::find(set.begin(), set.end(), line);
        if (it == set.end()) {
            ++misses;
            install(line);
            return false;
        }
        set.erase(it);
        set.insert(set.begin(), line);
        ++hits;
        return true;
    }
};

class CacheDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheDifferential, MatchesMoveToFrontReference)
{
    const unsigned ways = GetParam();
    constexpr unsigned sets = 4;
    Cache c("d", {64ull * ways * sets, ways, 64});
    ASSERT_EQ(c.numSets(), sets);
    RefCache ref{ways, std::vector<std::vector<std::uint64_t>>(sets)};
    Rng rng(ways * 104729ull + 3);

    // Hot lines overflow every set a little; periodic scans of fresh
    // lines push every resident line out.
    const std::uint64_t hot = sets * (2ull * ways + 1);
    std::uint64_t fresh = 1ull << 20;
    std::uint64_t residentRefills = 0;

    for (int step = 0; step < 30'000; ++step) {
        const std::uint64_t pick = rng.below(100);
        std::uint64_t line = rng.below(hot);
        if (step % 1000 == 999) {
            for (unsigned i = 0; i <= ways * sets; ++i) {
                const std::uint64_t l = fresh++;
                ASSERT_EQ(c.access(l * 64), ref.access(l));
            }
        } else if (pick < 15) {
            // The prefetcher's fill: installs absent lines only.
            const bool resident = ref.resident(line);
            ASSERT_EQ(c.fill(line * 64 + 8), !resident) << "step " << step;
            if (resident)
                ++residentRefills;
            else
                ref.install(line);
        } else {
            ASSERT_EQ(c.access(line * 64 + rng.below(64)),
                      ref.access(line))
                << "step " << step << " line " << line;
            ASSERT_TRUE(c.peekMru(line * 64));
        }
        ASSERT_EQ(c.hits(), ref.hits) << "step " << step;
        ASSERT_EQ(c.misses(), ref.misses) << "step " << step;
        // The fast-path contract: way 0 of each set holds its MRU tag.
        for (unsigned s = 0; s < sets; ++s) {
            const auto &set = ref.sets[s];
            if (set.empty())
                continue;
            ASSERT_EQ(c.tagArrayPtr()[s * ways], set.front());
            ASSERT_TRUE(c.peekMru(set.front() * 64 + 63));
        }
        ASSERT_EQ(c.contains(line * 64), ref.resident(line));
    }
    EXPECT_GT(residentRefills, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheDifferential,
                         ::testing::Values(1u, 2u, 8u, 16u),
                         [](const auto &info) {
                             return "w" + std::to_string(info.param);
                         });

TEST(CacheDeathTest, BadGeometryIsFatal)
{
    EXPECT_EXIT(Cache("t", {1024, 3, 64}), ::testing::ExitedWithCode(1),
                "geometry");
    EXPECT_EXIT(Cache("t", {1024, 2, 48}), ::testing::ExitedWithCode(1),
                "power of two");
}

} // namespace
} // namespace limit::mem
