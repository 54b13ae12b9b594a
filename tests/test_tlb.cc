/**
 * @file
 * Unit tests for the TLB model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "mem/tlb.hh"

namespace limit::mem {
namespace {

TEST(Tlb, MissThenHitSamePage)
{
    Tlb t({4, 4096});
    EXPECT_FALSE(t.access(0x1000)); // miss installs the page
    EXPECT_TRUE(t.access(0x1fff)); // same page
    EXPECT_FALSE(t.access(0x2000)); // next page
}

TEST(Tlb, LruEviction)
{
    Tlb t({2, 4096});
    t.access(0x0000);
    t.access(0x1000);
    EXPECT_TRUE(t.access(0x0000)); // page 0 becomes MRU
    EXPECT_FALSE(t.access(0x2000)); // evicts page 1
    EXPECT_TRUE(t.access(0x0000));
    EXPECT_TRUE(t.access(0x2000));
    EXPECT_FALSE(t.access(0x1000));
}

TEST(Tlb, DoubleFillIsIdempotent)
{
    // A page is installed once: touching it again right after its
    // miss hits the same slot instead of taking a second one.
    Tlb t({2, 4096});
    EXPECT_FALSE(t.access(0x1000));
    EXPECT_TRUE(t.access(0x1000));
    EXPECT_FALSE(t.access(0x2000));
    EXPECT_TRUE(t.access(0x1000)); // not evicted by its own refill
    EXPECT_TRUE(t.access(0x2000));
}

TEST(Tlb, HitMissCountsTrack)
{
    Tlb t({4, 4096});
    t.access(0x1000); // miss
    t.access(0x1000); // hit
    t.access(0x1008); // hit
    EXPECT_EQ(t.misses(), 1u);
    EXPECT_EQ(t.hits(), 2u);
}

/**
 * Naive true-LRU reference: resident pages in recency order, most
 * recent first, plus the most-recently-hit page the Tlb's filter and
 * fast-path credits work from.
 */
struct RefTlb
{
    static constexpr std::uint64_t none = ~0ull;

    unsigned entries;
    std::vector<std::uint64_t> pages;
    std::uint64_t lastHit = none;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t lastHitEvictions = 0;

    bool
    access(std::uint64_t page)
    {
        const auto it = std::find(pages.begin(), pages.end(), page);
        if (it != pages.end()) {
            pages.erase(it);
            pages.insert(pages.begin(), page);
            lastHit = page;
            ++hits;
            return true;
        }
        ++misses;
        if (pages.size() == entries) {
            if (pages.back() == lastHit) {
                lastHit = none;
                ++lastHitEvictions;
            }
            pages.pop_back();
        }
        pages.insert(pages.begin(), page);
        return false;
    }

    void
    creditLastHit(std::uint64_t n)
    {
        const auto it = std::find(pages.begin(), pages.end(), lastHit);
        pages.erase(it);
        pages.insert(pages.begin(), lastHit);
        hits += n;
    }
};

class TlbDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TlbDifferential, MatchesMoveToFrontReference)
{
    const unsigned entries = GetParam();
    constexpr unsigned pageBytes = 4096;
    Tlb t({entries, pageBytes});
    RefTlb ref{entries, {}};
    Rng rng(entries * 7919ull + 1);

    // Hot pages overflow the TLB a little, so hits and evictions mix;
    // periodic scans of fresh pages push every page out, including
    // the filter's most-recently-hit one.
    const std::uint64_t hot = 2ull * entries + 1;
    std::uint64_t fresh = 1ull << 20;
    std::uint64_t page = 0;
    std::uint64_t credits = 0;

    for (int step = 0; step < 30'000; ++step) {
        const std::uint64_t pick = rng.below(100);
        if (step % 1000 == 999) {
            for (unsigned i = 0; i <= entries; ++i) {
                const std::uint64_t p = fresh++;
                ASSERT_EQ(t.access(p * pageBytes), ref.access(p));
            }
        } else if (pick < 10 && ref.lastHit != RefTlb::none) {
            // The fast path's protocol: peek first, then credit.
            const sim::Addr addr = ref.lastHit * pageBytes + 8;
            ASSERT_TRUE(t.peekLastPage(addr));
            const std::uint64_t n = 1 + rng.below(4);
            if (n == 1)
                t.creditLastPageHit();
            else
                t.creditLastPageHits(n);
            ref.creditLastHit(n);
            credits += n;
        } else {
            if (pick >= 40) // else repeat the previous page
                page = rng.below(hot);
            const sim::Addr addr = page * pageBytes + rng.below(pageBytes);
            ASSERT_EQ(t.access(addr), ref.access(page))
                << "step " << step << " page " << page;
            ASSERT_EQ(t.peekLastPage(addr), page == ref.lastHit);
        }
        ASSERT_EQ(t.hits(), ref.hits) << "step " << step;
        ASSERT_EQ(t.misses(), ref.misses) << "step " << step;
        ASSERT_EQ(*t.lastPagePtr(), ref.lastHit) << "step " << step;
    }
    EXPECT_GT(ref.lastHitEvictions, 0u);
    EXPECT_GT(credits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Entries, TlbDifferential,
                         ::testing::Values(1u, 2u, 3u, 64u, 65u),
                         [](const auto &info) {
                             return "e" + std::to_string(info.param);
                         });

} // namespace
} // namespace limit::mem
